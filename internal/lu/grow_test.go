package lu_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bennett"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// checkGrow holds SymbolicLU.Grow to a fresh Symbolic: the structure of
// p under o grown by the positions add (original indices) must equal
// Symbolic of (p ∪ add) under o, row for row, and every row that did
// not change must be the old structure's own slice, not a recomputed
// copy.
func checkGrow(t *testing.T, name string, p *sparse.Pattern, o sparse.Ordering, add []sparse.Coord) *lu.SymbolicLU {
	t.Helper()
	rowInv, colInv := o.Row.Inverse(), o.Col.Inverse()
	permuted := make([]sparse.Coord, len(add))
	for k, c := range add {
		permuted[k] = sparse.Coord{Row: rowInv[c.Row], Col: colInv[c.Col]}
	}
	old := lu.Symbolic(p.Permute(o))
	got := old.Grow(permuted)
	want := lu.Symbolic(p.With(rowMajorUnique(p, add)).Permute(o))
	sameSymbolic(t, name, got, want)
	shared := func(a, b []int) bool { return len(a) == 0 || &a[0] == &b[0] }
	for i := 0; i < want.N(); i++ {
		if slices.Equal(old.LRow(i), want.LRow(i)) && slices.Equal(old.URow(i), want.URow(i)) &&
			(!shared(old.LRow(i), got.LRow(i)) || !shared(old.URow(i), got.URow(i))) {
			t.Fatalf("%s: row %d did not change but was recomputed", name, i)
		}
	}
	return got
}

// rowMajorUnique returns the positions of add that p lacks, once each,
// row-major, as Pattern.With takes them.
func rowMajorUnique(p *sparse.Pattern, add []sparse.Coord) []sparse.Coord {
	var out []sparse.Coord
	for _, c := range add {
		if !p.Has(c.Row, c.Col) && !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b sparse.Coord) int {
		if a.Row != b.Row {
			return a.Row - b.Row
		}
		return a.Col - b.Col
	})
	return out
}

// TestSymbolicGrowMatchesSymbolic runs checkGrow over unsymmetric and
// symmetric random patterns, each under the identity and a random
// ordering, grown by one position, by a few, by n, by positions it
// already holds and by nothing.
func TestSymbolicGrowMatchesSymbolic(t *testing.T) {
	rng := xrand.New(5150)
	for s := 0; s < 40; s++ {
		n := 2 + rng.Intn(45)
		p := symbolicShape(rng, n, n*(1+rng.Intn(3)), true, s%2 == 1, 0)
		draws := map[string][]sparse.Coord{"none": nil, "held": p.Coords()[:min(3, p.Size())]}
		for _, k := range []int{1, 3, n} {
			var add []sparse.Coord
			for ; k > 0; k-- {
				add = append(add, sparse.Coord{Row: rng.Intn(n), Col: rng.Intn(n)})
			}
			draws[fmt.Sprint("add ", len(add))] = add
		}
		for what, add := range draws {
			for _, o := range []sparse.Ordering{sparse.IdentityOrdering(n), randomOrdering(rng, n)} {
				checkGrow(t, fmt.Sprintf("shape %d, %s", s, what), p, o, add)
			}
		}
	}
}

// FuzzSymbolicGrow draws a pattern and the positions that grow it from
// the bytes (n from the first; then one position per byte pair, the
// pattern's before the first 0xff byte and the added ones after it) and
// an ordering from the seed (0: the identity; odd: one permutation for
// rows and columns; even: one each): the grown structure must equal
// Symbolic of the grown pattern row for row, sharing the rows that did
// not change (checkGrow).
func FuzzSymbolicGrow(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 0xff, 4, 0}, uint64(0))
	f.Add([]byte{12, 3, 5, 9, 2, 11, 0, 4, 4, 0xff, 1, 7, 8, 2}, uint64(3))
	f.Add([]byte{9, 1, 0, 2, 1, 3, 2, 0xff, 0, 3, 5, 5, 8, 0}, uint64(10))
	f.Add([]byte{30, 0xff, 2, 7, 9, 4, 13, 1, 6, 6, 0, 15}, uint64(8))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		var base, add []sparse.Coord
		into := &base
		for k := 1; k < len(data); k++ {
			if data[k] == 0xff {
				into = &add
				continue
			}
			if k+1 < len(data) && data[k+1] != 0xff {
				*into = append(*into, sparse.Coord{Row: int(data[k]) % n, Col: int(data[k+1]) % n})
				k++
			}
		}
		o := sparse.IdentityOrdering(n)
		switch {
		case seed%2 == 1:
			o = sparse.SymmetricOrdering(xrand.New(seed).Perm(n))
		case seed != 0:
			o = randomOrdering(xrand.New(seed), n)
		}
		checkGrow(t, "fuzz", sparse.NewPattern(n, base), o, add)
	})
}

// TestStructureViewsTheContainer: a container's Structure is the
// symbolic pattern it was built from, row for row.
func TestStructureViewsTheContainer(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		sym := lu.Symbolic(dominant(rng, n, 3*n, trial%2 == 1).Pattern())
		f := lu.NewStaticFactors(sym)
		sameSymbolic(t, fmt.Sprint("trial ", trial), f.Structure(), sym)
		// A clone holds no cross views; its Structure builds them.
		sameSymbolic(t, fmt.Sprint("trial ", trial, " clone"), f.Clone().(*lu.StaticFactors).Structure(), sym)
	}
}

// TestGrownThenBennettMatchesRefactorization is the kept-order step in
// one container: factors of A in S moved into the grown S′ ⊇ S solve as
// before and hold every old value at its position and zero at the new
// ones, and a Bennett update by ∆A (new positions included) gives the
// factors a full decomposition of A + ∆A in S′ gives, to rounding.
func TestGrownThenBennettMatchesRefactorization(t *testing.T) {
	rng := xrand.New(6061)
	var ws lu.Workspace
	var bws bennett.Workspace
	for trial := 0; trial < 60; trial++ {
		symmetric := trial%2 == 1
		n := 2 + rng.Intn(40)
		a := dominant(rng, n, 2*n, symmetric)
		sym := lu.Symbolic(a.Pattern())
		f := lu.NewStaticFactors(sym)
		if err := f.FactorizeWith(a, &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		delta := perturbation(rng, a, symmetric)
		var fresh []sparse.Coord
		for k := 0; k < 1+n/8; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j || a.Pattern().Has(i, j) || slices.Contains(fresh, sparse.Coord{Row: i, Col: j}) {
				continue
			}
			delta = append(delta, sparse.Entry{Row: i, Col: j, Val: (rng.Float64()*2 - 1) / 16})
			fresh = append(fresh, sparse.Coord{Row: i, Col: j})
			if symmetric {
				delta = append(delta, sparse.Entry{Row: j, Col: i, Val: delta[len(delta)-1].Val})
				fresh = append(fresh, sparse.Coord{Row: j, Col: i})
			}
		}
		slices.SortFunc(delta, func(x, y sparse.Entry) int {
			if x.Row != y.Row {
				return x.Row - y.Row
			}
			return x.Col - y.Col
		})
		grownSym := f.Structure().Grow(fresh)
		g := f.Grown(grownSym)
		if g.Size() != grownSym.Size() || g.Mirrored() != f.Mirrored() {
			t.Fatalf("trial %d: grown size %d mirrored %v, structure %d, source mirrored %v", trial, g.Size(), g.Mirrored(), grownSym.Size(), f.Mirrored())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i > j && g.LAt(i, j) != f.LAt(i, j) || i < j && g.UAt(i, j) != f.UAt(i, j) {
					t.Fatalf("trial %d: (%d,%d) moved into the grown container as a different value", trial, i, j)
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		x, y := slices.Clone(b), slices.Clone(b)
		f.SolveInPlace(x)
		g.SolveInPlace(y)
		if !slices.Equal(x, y) {
			t.Fatalf("trial %d: the grown container solves differently", trial)
		}

		if err := bws.ApplyTerms(g, bennett.SplitTerms(delta), &bennett.Stats{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := lu.NewStaticFactors(grownSym)
		if err := want.FactorizeWith(a.Add(sparse.NewCSRFromEntries(n, delta)), &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if symmetric && !g.Mirrored() {
			t.Fatalf("trial %d: a symmetric update on the grown container left it unmirrored", trial)
		}
		worst := 0.0
		for _, pair := range [][2][]float64{{g.LVal, want.LVal}, {g.UVal, want.UVal}, {g.D, want.D}} {
			for k := range pair[0] {
				worst = max(worst, math.Abs(pair[0][k]-pair[1][k]))
			}
		}
		if worst > 1e-12 {
			t.Fatalf("trial %d: grown + Bennett differs from the refactorization by %g", trial, worst)
		}
	}
}
