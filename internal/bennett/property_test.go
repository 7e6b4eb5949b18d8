package bennett

import (
	"testing"
	"testing/quick"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// TestUpdateChainProperty drives a random walk of small deltas through
// both containers and checks, at every step, that the maintained
// factors solve the current system as accurately as a fresh
// factorization would.
func TestUpdateChainProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 5 + rng.Intn(25)
		a := randomDominant(rng, n, 4*n)

		// Union container (CLUDE style) needs to know all patterns in
		// advance: pre-generate the walk.
		mats := []*sparse.CSR{a}
		cur := a
		for step := 0; step < 5; step++ {
			next := applyEntries(cur, smallDelta(rng, cur, 4))
			mats = append(mats, next)
			cur = next
		}
		union := mats[0].Pattern()
		for _, m := range mats[1:] {
			union = union.Union(m.Pattern())
		}
		fs := lu.NewStaticFactors(lu.Symbolic(union))
		if err := fs.Factorize(mats[0]); err != nil {
			return false
		}
		tight := lu.NewStaticFactors(lu.Symbolic(mats[0].Pattern()))
		if err := tight.Factorize(mats[0]); err != nil {
			return false
		}
		fd := lu.NewDynamicFactors(tight)

		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		for step := 1; step < len(mats); step++ {
			delta := sparse.Delta(mats[step-1], mats[step])
			if err := update(fs, delta, nil); err != nil {
				return false
			}
			if err := update(fd, delta, nil); err != nil {
				return false
			}
			b := mats[step].MulVec(x)
			b1 := append([]float64(nil), b...)
			b2 := append([]float64(nil), b...)
			fs.SolveInPlace(b1)
			fd.SolveInPlace(b2)
			if sparse.NormInfDiff(b1, x) > 1e-6 || sparse.NormInfDiff(b2, x) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRank1SymmetryProperty: applying +σyzᵀ then −σyzᵀ returns the
// factors to (numerically) where they started.
func TestRank1SymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 4 + rng.Intn(15)
		a := randomDominant(rng, n, 3*n)
		fs := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := fs.Factorize(a); err != nil {
			return false
		}
		before := fs.Reconstruct()
		r := rng.Intn(n)
		var z []sparse.Entry
		for k := 0; k < 1+rng.Intn(3); k++ {
			c := rng.Intn(n)
			// Keep the perturbation within the existing pattern so the
			// static container accepts it.
			if !a.Has(r, c) {
				continue
			}
			z = append(z, sparse.Entry{Row: c, Val: (rng.Float64() - 0.5) * 0.2})
		}
		if len(z) == 0 {
			return true
		}
		y := []sparse.Entry{{Row: r, Val: 1}}
		if err := Rank1(fs, 1, y, z, nil); err != nil {
			return false
		}
		if err := Rank1(fs, -1, y, z, nil); err != nil {
			return false
		}
		return fs.Reconstruct().EqualApprox(before, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDeltaSideChoice: the row/column grouping choice must not affect
// the result, only the cost. Construct a delta concentrated in one
// column (grouped by column) and its transpose situation (grouped by
// row) and verify both produce correct factors.
func TestDeltaSideChoice(t *testing.T) {
	rng := xrand.New(4242)
	n := 15
	a := randomDominant(rng, n, 4*n)

	// Column-concentrated delta: many rows, one column.
	var colDelta []sparse.Entry
	for i := 0; i < 6; i++ {
		colDelta = append(colDelta, sparse.Entry{Row: 1 + i, Col: 3, Val: 0.05 * float64(i+1)})
	}
	// Row-concentrated delta: one row, many columns.
	var rowDelta []sparse.Entry
	for j := 0; j < 6; j++ {
		rowDelta = append(rowDelta, sparse.Entry{Row: 3, Col: 1 + j, Val: -0.03 * float64(j+1)})
	}
	for name, delta := range map[string][]sparse.Entry{"col": colDelta, "row": rowDelta} {
		want := applyEntries(a, delta)
		union := a.Pattern().Union(want.Pattern())
		fs := lu.NewStaticFactors(lu.Symbolic(union))
		if err := fs.Factorize(a); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := update(fs, delta, &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !fs.Reconstruct().EqualApprox(want, 1e-8) {
			t.Errorf("%s-concentrated delta updated wrongly", name)
		}
		// Concentrated deltas must collapse to a single rank-1 term.
		if st.Rank1Updates != 1 {
			t.Errorf("%s-concentrated delta used %d rank-1 terms, want 1", name, st.Rank1Updates)
		}
	}
}

// TestStatsAccumulate verifies the profiling counters move.
func TestStatsAccumulate(t *testing.T) {
	rng := xrand.New(4343)
	n := 20
	a := randomDominant(rng, n, 4*n)
	delta := smallDelta(rng, a, 6)
	b := applyEntries(a, delta)
	union := a.Pattern().Union(b.Pattern())
	fs := lu.NewStaticFactors(lu.Symbolic(union))
	if err := fs.Factorize(a); err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := update(fs, sparse.Delta(a, b), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rank1Updates == 0 || st.StepsTouched == 0 {
		t.Errorf("stats did not accumulate: %+v", st)
	}
	if st.StepsTouched < st.Rank1Updates {
		t.Errorf("steps (%d) < rank-1 terms (%d)", st.StepsTouched, st.Rank1Updates)
	}
}
