// The cross views (L by row, U by column) belong to the container that
// is written, not to its copies: a Clone and an AssembleStatic hold
// none, solve exactly as the original does, and build the views on
// demand when a factorization or a symmetric Bennett walk needs them.
// External test package: it drives internal/bennett.
package lu_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bennett"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// crossViews returns the six cross-view arrays of f.
func crossViews(f *lu.StaticFactors) [6][]int {
	return [6][]int{f.LRowPtr, f.LRowCols, f.LRowPos, f.UColPtr, f.UColRows, f.UColPos}
}

// noCrossViews reports whether f holds no cross view, and otherwise the
// name of one it holds.
func noCrossViews(f *lu.StaticFactors) (string, bool) {
	names := [6]string{"LRowPtr", "LRowCols", "LRowPos", "UColPtr", "UColRows", "UColPos"}
	for k, v := range crossViews(f) {
		if v != nil {
			return names[k], false
		}
	}
	return "", true
}

// dominant returns a random diagonally dominant n×n matrix; symmetric
// mirrors every off-diagonal draw with one value, so the matrix equals
// its transpose in every bit.
func dominant(rng *xrand.Rand, n, extra int, symmetric bool) *sparse.CSR {
	vals := make(map[sparse.Coord]float64)
	rowAbs := make([]float64, n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || vals[sparse.Coord{Row: i, Col: j}] != 0 {
			continue
		}
		v := rng.Float64()*2 - 1
		vals[sparse.Coord{Row: i, Col: j}] = v
		rowAbs[i] += math.Abs(v)
		if symmetric {
			vals[sparse.Coord{Row: j, Col: i}] = v
			rowAbs[j] += math.Abs(v)
		}
	}
	var entries []sparse.Entry
	for c, v := range vals {
		entries = append(entries, sparse.Entry{Row: c.Row, Col: c.Col, Val: v})
	}
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Entry{Row: i, Col: i, Val: rowAbs[i] + 1 + rng.Float64()})
	}
	return sparse.NewCSRFromEntries(n, entries)
}

// perturbation returns a small ∆A on positions of a's off-diagonal
// pattern, mirrored when symmetric, sorted row-major as SplitTerms
// wants it.
func perturbation(rng *xrand.Rand, a *sparse.CSR, symmetric bool) []sparse.Entry {
	vals := make(map[sparse.Coord]float64)
	for i := 0; i < a.N(); i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j == i || rng.Intn(3) != 0 || vals[sparse.Coord{Row: i, Col: j}] != 0 {
				continue
			}
			v := (rng.Float64()*2 - 1) / 16
			vals[sparse.Coord{Row: i, Col: j}] = v
			if symmetric {
				vals[sparse.Coord{Row: j, Col: i}] = v
			}
		}
	}
	var d []sparse.Entry
	for c, v := range vals {
		d = append(d, sparse.Entry{Row: c.Row, Col: c.Col, Val: v})
	}
	slices.SortFunc(d, func(x, y sparse.Entry) int {
		if x.Row != y.Row {
			return x.Row - y.Row
		}
		return x.Col - y.Col
	})
	return d
}

// assembled rebuilds f from copies of its primary arrays.
func assembled(t *testing.T, f *lu.StaticFactors) *lu.StaticFactors {
	t.Helper()
	g, err := lu.AssembleStatic(f.Dim(), slices.Clone(f.LColPtr), slices.Clone(f.LRowIdx), slices.Clone(f.LVal),
		slices.Clone(f.URowPtr), slices.Clone(f.UColIdx), slices.Clone(f.UVal), slices.Clone(f.D))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameFactorBits reports whether a and b hold the same values in every
// bit.
func sameFactorBits(a, b *lu.StaticFactors) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return same(a.LVal, b.LVal) && same(a.UVal, b.UVal) && same(a.D, b.D) && a.Mirrored() == b.Mirrored()
}

// TestCrossViewsBuiltOnDemand: over random directed and symmetric
// structures, a Clone and an AssembleStatic of a factorized container
// hold no cross views and solve bit-identically to it. After a
// FactorizeWith — and, on a mirrored container, after a symmetric
// Bennett update — their lazily built views equal the six arrays
// NewStaticFactors built, and their values equal the original's after
// the same write. NewStaticFactors' views are held to the symbolic
// pattern's rows themselves, so the one builder is checked against a
// source it does not share.
func TestCrossViewsBuiltOnDemand(t *testing.T) {
	rng := xrand.New(4601)
	var ws lu.Workspace
	var bws bennett.Workspace
	for trial := 0; trial < 60; trial++ {
		symmetric := trial%2 == 1
		n := 1 + rng.Intn(40)
		a := dominant(rng, n, 3*n, symmetric)
		sym := lu.Symbolic(a.Pattern())
		eager := lu.NewStaticFactors(sym)
		for i := 0; i < n; i++ {
			cols := eager.LRowCols[eager.LRowPtr[i]:eager.LRowPtr[i+1]]
			if !slices.Equal(cols, sym.LRow(i)) && !(len(cols) == 0 && len(sym.LRow(i)) == 0) {
				t.Fatalf("trial %d: L row %d view %v, symbolic %v", trial, i, cols, sym.LRow(i))
			}
			for q, j := range cols {
				if p := eager.LRowPos[eager.LRowPtr[i]+q]; eager.LRowIdx[p] != i || p < eager.LColPtr[j] || p >= eager.LColPtr[j+1] {
					t.Fatalf("trial %d: L(%d,%d) view points at %d", trial, i, j, p)
				}
			}
		}
		for j := 0; j < n; j++ {
			for q := eager.UColPtr[j]; q < eager.UColPtr[j+1]; q++ {
				i, p := eager.UColRows[q], eager.UColPos[q]
				if !slices.Contains(sym.URow(i), j) || eager.UColIdx[p] != j || p < eager.URowPtr[i] || p >= eager.URowPtr[i+1] {
					t.Fatalf("trial %d: U(%d,%d) view points at %d", trial, i, j, p)
				}
			}
		}
		if err := eager.FactorizeWith(a, &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if symmetric && !eager.Mirrored() {
			t.Fatalf("trial %d: a symmetric matrix factorized unmirrored", trial)
		}
		want := crossViews(eager)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*2 - 1
		}
		x := slices.Clone(b)
		eager.SolveInPlace(x)

		delta := perturbation(rng, a, symmetric)
		a2 := a.Add(sparse.NewCSRFromEntries(n, delta))
		refactored := eager.Clone().(*lu.StaticFactors)
		if err := refactored.FactorizeWith(a2, &ws); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		updated := eager.Clone().(*lu.StaticFactors)
		if err := bws.ApplyTerms(updated, bennett.SplitTerms(delta), &bennett.Stats{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		for _, c := range []struct {
			name string
			f    *lu.StaticFactors
		}{{"clone", eager.Clone().(*lu.StaticFactors)}, {"assembled", assembled(t, eager)}} {
			if name, ok := noCrossViews(c.f); !ok {
				t.Fatalf("trial %d: the %s holds %s", trial, c.name, name)
			}
			got := slices.Clone(b)
			c.f.SolveInPlace(got)
			if !slices.EqualFunc(got, x, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
				t.Fatalf("trial %d: the %s solves differently", trial, c.name)
			}

			f := c.f.Clone().(*lu.StaticFactors)
			if err := f.FactorizeWith(a2, &ws); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, c.name, err)
			}
			if !reflect.DeepEqual(crossViews(f), want) {
				t.Fatalf("trial %d: the %s's views after FactorizeWith differ from NewStaticFactors'", trial, c.name)
			}
			if !sameFactorBits(f, refactored) {
				t.Fatalf("trial %d: the %s refactorizes differently", trial, c.name)
			}

			if !symmetric || len(delta) == 0 {
				continue
			}
			f = c.f.Clone().(*lu.StaticFactors)
			if err := bws.ApplyTerms(f, bennett.SplitTerms(delta), &bennett.Stats{}); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, c.name, err)
			}
			if !f.Mirrored() {
				t.Fatalf("trial %d: the %s left the symmetric walk unmirrored", trial, c.name)
			}
			if !reflect.DeepEqual(crossViews(f), want) {
				t.Fatalf("trial %d: the %s's views after a symmetric update differ from NewStaticFactors'", trial, c.name)
			}
			if !sameFactorBits(f, updated) {
				t.Fatalf("trial %d: the %s updates differently", trial, c.name)
			}
		}
	}
}
