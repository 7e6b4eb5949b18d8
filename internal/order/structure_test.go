package order

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// referenceEliminate is the elimination without the structure hand-over
// and without the dense-tail shortcut: every pivot is popped, its fill
// computed, its lists dropped. It is what eliminate was before it kept
// what it computes, and stays here as the pivot-sequence reference.
// trace, when set, is told the live vertex count and the live
// off-diagonal entry count before every pivot.
func referenceEliminate(p *sparse.Pattern, symmetric bool, trace func(m, entries int)) (pivots []int, sspSize int) {
	n := p.N()
	g := newElimGraph(p, symmetric)
	cost := func(v int) int {
		if symmetric {
			return len(g.row[v]) * len(g.row[v])
		}
		return len(g.row[v]) * len(g.col[v])
	}
	curCost := make([]int, n)
	eliminated := make([]bool, n)
	h := make(sparse.MinHeap[pivotCand], n, 2*n)
	for v := 0; v < n; v++ {
		curCost[v] = cost(v)
		h[v] = pivotCand{curCost[v], v}
	}
	h.Init()
	recost := func(touched []int) {
		for _, u := range touched {
			if nc := cost(u); nc != curCost[u] {
				curCost[u] = nc
				h.Push(pivotCand{nc, u})
			}
		}
	}
	for len(pivots) < n {
		cand := h.Pop()
		v := cand.v
		if eliminated[v] || cand.cost != curCost[v] {
			continue
		}
		if trace != nil {
			entries := 0
			for _, row := range g.row {
				entries += len(row)
			}
			trace(n-len(pivots), entries)
		}
		eliminated[v] = true
		pivots = append(pivots, v)
		r, c := g.row[v], g.col[v]
		sspSize += len(r) + len(c) + 1
		for _, i := range c {
			g.stamp++
			g.mark[i] = g.stamp
			ri := g.row[i]
			for k := 0; k < len(ri); {
				if ri[k] == v {
					ri[k] = ri[len(ri)-1]
					ri = ri[:len(ri)-1]
					continue
				}
				g.mark[ri[k]] = g.stamp
				k++
			}
			for _, j := range r {
				if g.mark[j] != g.stamp {
					ri = append(ri, j)
					g.col[j] = append(g.col[j], i)
				}
			}
			g.row[i] = ri
		}
		if !symmetric {
			for _, j := range r {
				g.col[j] = drop(g.col[j], v)
			}
		}
		g.row[v], g.col[v] = nil, nil
		recost(r)
		if !symmetric {
			recost(c)
		}
	}
	return pivots, sspSize
}

// symmetrized returns p ∪ pᵀ, the pattern MinDegree actually orders.
func symmetrized(p *sparse.Pattern) *sparse.Pattern {
	coords := p.Coords()
	for _, c := range p.Coords() {
		coords = append(coords, sparse.Coord{Row: c.Col, Col: c.Row})
	}
	return sparse.NewPattern(p.N(), coords)
}

// cliqueWithPendants is a k-clique with one pendant vertex hanging off
// each member: the pendants go first at cost 0, then the active
// submatrix is full with most of the elimination still ahead.
func cliqueWithPendants(k int) *sparse.Pattern {
	n := 2 * k
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			coords = append(coords, sparse.Coord{Row: i, Col: j})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: k + i}, sparse.Coord{Row: k + i, Col: i})
	}
	return sparse.NewPattern(n, coords)
}

// structurePatterns covers the shapes the ordering must hand a correct
// structure for: random unsymmetric and symmetric, a missing diagonal,
// diagonal-only, full, the degenerate sizes, and patterns whose active
// submatrix turns dense early (clique plus pendants), late (random) and
// never before the last vertex (a path; the arrow).
func structurePatterns() map[string]*sparse.Pattern {
	ps := map[string]*sparse.Pattern{}
	for s := 0; s < 12; s++ {
		rng := xrand.New(uint64(900 + s))
		n := 5 + rng.Intn(60)
		ps[fmt.Sprint("unsymmetric/", s)] = randomPattern(rng, n, n*(1+rng.Intn(4)), false)
		ps[fmt.Sprint("symmetric/", s)] = randomPattern(rng, n, n*(1+rng.Intn(3)), true)
		// No diagonal at all: the elimination force-adds it.
		var coords []sparse.Coord
		for k := 0; k < 3*n; k++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				coords = append(coords, sparse.Coord{Row: i, Col: j})
			}
		}
		ps[fmt.Sprint("missing-diagonal/", s)] = sparse.NewPattern(n, coords)
	}
	ps["diagonal-only"] = randomPattern(xrand.New(1), 9, 0, false)
	var full, path []sparse.Coord
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			full = append(full, sparse.Coord{Row: i, Col: j})
		}
		path = append(path, sparse.Coord{Row: i, Col: i})
		if i > 0 {
			path = append(path, sparse.Coord{Row: i, Col: i - 1}, sparse.Coord{Row: i - 1, Col: i})
		}
	}
	ps["full"] = sparse.NewPattern(7, full)
	ps["path"] = sparse.NewPattern(7, path)
	ps["arrow"] = arrowPattern(11)
	ps["clique+pendants"] = cliqueWithPendants(9)
	for n := 0; n <= 2; n++ {
		ps[fmt.Sprint("n=", n)] = randomPattern(xrand.New(2), n, 0, false)
	}
	ps["n=2/coupled"] = sparse.NewPattern(2, []sparse.Coord{{Row: 0, Col: 1}, {Row: 1, Col: 0}})
	return ps
}

// TestOrderingHandsOverSymbolic pins the hand-over: the structure an
// ordering returns is lu.Symbolic of the permuted pattern, row for row
// and column for column, SSPSize is its size, and the pivot sequence is
// the no-shortcut reference's.
func TestOrderingHandsOverSymbolic(t *testing.T) {
	for name, p := range structurePatterns() {
		for _, symmetric := range []bool{false, true} {
			alg, res, ordered := "Markowitz", Markowitz(p), p
			if symmetric {
				alg, res, ordered = "MinDegree", MinDegree(p), symmetrized(p)
			}
			wantPivots, wantSize := referenceEliminate(p, symmetric, nil)
			if !slices.Equal([]int(res.Ordering.Row), wantPivots) || !slices.Equal([]int(res.Ordering.Col), wantPivots) {
				t.Fatalf("%s %s: pivots %v, reference %v", alg, name, res.Ordering.Row, wantPivots)
			}
			want := lu.Symbolic(ordered.Permute(res.Ordering))
			got := res.Symbolic
			if got.N() != p.N() || res.SSPSize != want.Size() || res.SSPSize != wantSize || got.Size() != want.Size() {
				t.Fatalf("%s %s: n %d SSPSize %d structure size %d; symbolic n %d size %d, reference size %d",
					alg, name, got.N(), res.SSPSize, got.Size(), want.N(), want.Size(), wantSize)
			}
			for i := 0; i < p.N(); i++ {
				if !slices.Equal(got.LRow(i), want.LRow(i)) {
					t.Fatalf("%s %s: L row %d = %v, symbolic %v", alg, name, i, got.LRow(i), want.LRow(i))
				}
				if !slices.Equal(got.URow(i), want.URow(i)) {
					t.Fatalf("%s %s: U row %d = %v, symbolic %v", alg, name, i, got.URow(i), want.URow(i))
				}
			}
			// Column for column: the containers built from both agree.
			a, b := lu.NewStaticFactors(got), lu.NewStaticFactors(want)
			if !slices.Equal(a.LColPtr, b.LColPtr) || !slices.Equal(a.LRowIdx, b.LRowIdx) ||
				!slices.Equal(a.UColPtr, b.UColPtr) || !slices.Equal(a.UColRows, b.UColRows) {
				t.Fatalf("%s %s: column views differ", alg, name)
			}
		}
	}
}

// TestDenseTailIsTaken makes sure the shapes above do reach the
// shortcut where intended: a clique with pendants finishes with the
// clique in index order.
func TestDenseTailIsTaken(t *testing.T) {
	k := 9
	res := Markowitz(cliqueWithPendants(k))
	for x, v := range res.Ordering.Row[k:] {
		if v != x {
			t.Fatalf("clique tail %v is not in index order", res.Ordering.Row[k:])
		}
	}
	if want := 3*k + k*k; res.SSPSize != want {
		t.Fatalf("SSPSize %d, want %d (pendants + full clique)", res.SSPSize, want)
	}
}
