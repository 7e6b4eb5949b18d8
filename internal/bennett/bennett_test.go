package bennett

import (
	"errors"
	"math"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// update applies ∆A to f with a fresh workspace through the one entry
// point: SplitTerms, then ApplyTerms.
func update(f lu.Factors, delta []sparse.Entry, st *Stats) error {
	var w Workspace
	return w.ApplyTerms(f, SplitTerms(delta), st)
}

// randomDominant mirrors the lu test helper: strictly diagonally
// dominant matrices that never pivot-fail.
func randomDominant(rng *xrand.Rand, n, extra int) *sparse.CSR {
	c := sparse.NewCOO(n)
	rowAbs := make([]float64, n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.Float64()*2 - 1
		c.Add(i, j, v)
		rowAbs[i] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, rowAbs[i]+2+rng.Float64())
	}
	return c.ToCSR()
}

// smallDelta perturbs a few existing off-diagonal entries and adds a
// few new ones, keeping dominance (small magnitudes).
func smallDelta(rng *xrand.Rand, a *sparse.CSR, edits int) []sparse.Entry {
	n := a.N()
	var out []sparse.Entry
	for k := 0; k < edits; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		out = append(out, sparse.Entry{Row: i, Col: j, Val: (rng.Float64() - 0.5) * 0.2})
	}
	return out
}

func applyEntries(a *sparse.CSR, delta []sparse.Entry) *sparse.CSR {
	c := sparse.NewCOO(a.N())
	for i := 0; i < a.N(); i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			c.Add(i, j, vals[k])
		}
	}
	for _, e := range delta {
		c.Add(e.Row, e.Col, e.Val)
	}
	return c.ToCSR()
}

func TestRank1DynamicMatchesRefactorization(t *testing.T) {
	rng := xrand.New(700)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		a := randomDominant(rng, n, 3*n)
		f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		d := lu.NewDynamicFactors(f)

		r := rng.Intn(n)
		var z []sparse.Entry
		for k := 0; k < 1+rng.Intn(4); k++ {
			z = append(z, sparse.Entry{Row: rng.Intn(n), Val: (rng.Float64() - 0.5) * 0.3})
		}
		if err := Rank1(d, 1, []sparse.Entry{{Row: r, Val: 1}}, z, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var delta []sparse.Entry
		for _, e := range z {
			delta = append(delta, sparse.Entry{Row: r, Col: e.Row, Val: e.Val})
		}
		want := applyEntries(a, delta)
		if !d.Reconstruct().EqualApprox(want, 1e-8) {
			t.Fatalf("trial %d: dynamic rank-1 update wrong", trial)
		}
	}
}

func TestUpdateDynamicSequenceMatchesRefactorization(t *testing.T) {
	rng := xrand.New(701)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		a := randomDominant(rng, n, 4*n)
		f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		d := lu.NewDynamicFactors(f)

		cur := a
		for step := 0; step < 4; step++ {
			delta := smallDelta(rng, cur, 5)
			next := applyEntries(cur, delta)
			if err := update(d, sparse.Delta(cur, next), nil); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			cur = next
		}
		if !d.Reconstruct().EqualApprox(cur, 1e-7) {
			t.Fatalf("trial %d: dynamic multi-step update diverged", trial)
		}
	}
}

func TestUpdateStaticWithinUSSP(t *testing.T) {
	// Build the USSP of {A, B} and verify Bennett can walk A→B inside
	// the frozen structure, matching a fresh factorization of B.
	rng := xrand.New(702)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(18)
		a := randomDominant(rng, n, 3*n)
		delta := smallDelta(rng, a, 6)
		b := applyEntries(a, delta)

		union := a.Pattern().Union(b.Pattern())
		f := lu.NewStaticFactors(lu.Symbolic(union))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := update(f, sparse.Delta(a, b), &st); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !f.Reconstruct().EqualApprox(b, 1e-7) {
			t.Fatalf("trial %d: static update wrong", trial)
		}
		if st.Rank1Updates == 0 {
			t.Fatal("stats not recorded")
		}
	}
}

func TestUpdateStaticOutOfPatternDetected(t *testing.T) {
	// Factor a diagonal matrix in its tight (diagonal-only) structure,
	// then apply a delta that must create off-diagonal factor entries.
	n := 5
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 3)
	}
	a := c.ToCSR()
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	delta := []sparse.Entry{{Row: 2, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 1}}
	err := update(f, delta, nil)
	if err == nil {
		t.Fatal("expected ErrOutOfPattern, got nil")
	}
}

func TestUpdateDynamicInsertsFill(t *testing.T) {
	// Same scenario on the dynamic container must succeed by splicing
	// new nodes.
	n := 5
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 3)
	}
	a := c.ToCSR()
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	d := lu.NewDynamicFactors(f)
	before := d.Size()
	delta := []sparse.Entry{{Row: 2, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 1}}
	if err := update(d, delta, nil); err != nil {
		t.Fatal(err)
	}
	if d.Size() <= before {
		t.Error("dynamic structure did not grow")
	}
	if d.Inserts == 0 {
		t.Error("no inserts counted")
	}
	want := applyEntries(a, delta)
	if !d.Reconstruct().EqualApprox(want, 1e-9) {
		t.Error("dynamic fill-inserting update wrong")
	}
}

func TestUpdateSingularDetected(t *testing.T) {
	a := sparse.NewCSRFromEntries(2, []sparse.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	})
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	// Delta drives D[0] to zero.
	err := update(f, []sparse.Entry{{Row: 0, Col: 0, Val: -1}}, nil)
	if err == nil {
		t.Fatal("singular update not detected")
	}
	if _, ok := err.(*lu.SingularError); !ok {
		t.Fatalf("error type %T, want *lu.SingularError", err)
	}
}

func TestUpdateEmptyDeltaNoop(t *testing.T) {
	rng := xrand.New(703)
	a := randomDominant(rng, 10, 30)
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	before := f.Reconstruct()
	if err := update(f, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !f.Reconstruct().EqualApprox(before, 0) {
		t.Error("empty delta changed factors")
	}
}

func TestSolveAfterUpdate(t *testing.T) {
	// End-to-end: factors updated by Bennett must solve the new system.
	rng := xrand.New(704)
	n := 25
	a := randomDominant(rng, n, 4*n)
	delta := smallDelta(rng, a, 8)
	b := applyEntries(a, delta)

	union := a.Pattern().Union(b.Pattern())
	f := lu.NewStaticFactors(lu.Symbolic(union))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	if err := update(f, sparse.Delta(a, b), nil); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.Float64()*2 - 1
	}
	rhs := b.MulVec(want)
	f.SolveInPlace(rhs)
	if d := sparse.NormInfDiff(rhs, want); d > 1e-7 {
		t.Errorf("solve after update error %g", d)
	}
}

func TestEdgeDeletionDelta(t *testing.T) {
	// Removing an entry (value returns to zero) must also be handled.
	rng := xrand.New(705)
	n := 12
	a := randomDominant(rng, n, 4*n)
	// Pick an existing off-diagonal entry to delete.
	var di, dj int
	var dv float64
	found := false
	for i := 0; i < n && !found; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j != i && vals[k] != 0 {
				di, dj, dv = i, j, vals[k]
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no off-diagonal entry")
	}
	delta := []sparse.Entry{{Row: di, Col: dj, Val: -dv}}
	b := applyEntries(a, delta)
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	if err := update(f, delta, nil); err != nil {
		t.Fatal(err)
	}
	if !f.Reconstruct().EqualApprox(b, 1e-8) {
		t.Error("deletion update wrong")
	}
}

// TestWorkspaceReuseMatchesOneShot applies the same update chain
// through a reused Workspace and through the allocating entry points;
// the factors must come out identical (the workspace is pure scratch).
func TestWorkspaceReuseMatchesOneShot(t *testing.T) {
	rng := xrand.New(4242)
	n := 40
	// Build a chain a0 → a1 → … and the USSP covering it, as a CLUDE
	// cluster would.
	mats := []*sparse.CSR{randomDominant(rng, n, 4*n)}
	union := mats[0].Pattern()
	for step := 0; step < 5; step++ {
		next := applyEntries(mats[len(mats)-1], smallDelta(rng, mats[len(mats)-1], 6))
		union = union.Union(next.Pattern())
		mats = append(mats, next)
	}
	build := func() *lu.StaticFactors {
		f := lu.NewStaticFactors(lu.Symbolic(union))
		if err := f.Factorize(mats[0]); err != nil {
			t.Fatal(err)
		}
		return f
	}
	fOne, fWS := build(), build()
	var ws Workspace
	for k := 1; k < len(mats); k++ {
		delta := sparse.Delta(mats[k-1], mats[k])
		if err := update(fOne, delta, nil); err != nil {
			t.Fatal(err)
		}
		if err := ws.ApplyTerms(fWS, SplitTerms(delta), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !fOne.Reconstruct().EqualApprox(fWS.Reconstruct(), 1e-12) {
		t.Error("workspace-reused updates diverged from one-shot updates")
	}

	// The same workspace must survive a dimension change and serve the
	// dynamic container too.
	b := randomDominant(rng, 15, 50)
	fb := lu.NewStaticFactors(lu.Symbolic(b.Pattern()))
	if err := fb.Factorize(b); err != nil {
		t.Fatal(err)
	}
	dyn := lu.NewDynamicFactors(fb)
	if err := ws.ApplyTerms(dyn, SplitTerms(smallDelta(rng, b, 3)), nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rank1Updates: 1, StepsTouched: 2, Dropped: 3}
	a.Add(Stats{Rank1Updates: 10, StepsTouched: 20, Dropped: 30})
	if a != (Stats{Rank1Updates: 11, StepsTouched: 22, Dropped: 33}) {
		t.Errorf("Stats.Add = %+v", a)
	}
}

// TestWorkspaceCleanAfterFailedUpdate reproduces the engine's fallback
// path: an update fails with ErrOutOfPattern mid-recurrence — after
// the recurrence has already promoted new support positions — the
// caller refactorizes, and the SAME workspace serves the next update.
// The failed attempt must leave no residue. (The bug: the staticExtras
// error exit skipped mergeTail, so promotions stayed marked inY with
// nonzero values that reset() could not find.)
func TestWorkspaceCleanAfterFailedUpdate(t *testing.T) {
	// A(0,0)=3, A(1,0)=A(0,1)=-1, rest diagonal: the tight structure
	// holds L(1,0) and U(0,1) and nothing else off-diagonal.
	n := 5
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 3)
	}
	c.Add(1, 0, -1)
	c.Add(0, 1, -1)
	a := c.ToCSR()
	build := func() *lu.StaticFactors {
		f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Poison: a column-0 rank-1 term with y = {0, 4}. At pivot 0 both
	// y0 and z0 are nonzero, so walking L column 0 promotes y[1]
	// (through L(1,0)) into newIdx; then the out-of-structure position
	// (4,0) raises ErrOutOfPattern from staticExtras — after the
	// promotion, before the old code merged it into the support.
	var ws Workspace
	fPoison := build()
	poison := []sparse.Entry{{Row: 0, Col: 0, Val: 0.5}, {Row: 4, Col: 0, Val: 0.5}}
	if err := ws.ApplyTerms(fPoison, SplitTerms(poison), nil); !errors.Is(err, ErrOutOfPattern) {
		t.Fatalf("poison update: got %v, want ErrOutOfPattern", err)
	}

	// A benign update whose pivot-0 column walk reads y[1]: any
	// residue from the failed attempt shows up in L(1,0).
	good := []sparse.Entry{{Row: 0, Col: 0, Val: 0.2}}
	fReused, fFresh := build(), build()
	if err := ws.ApplyTerms(fReused, SplitTerms(good), nil); err != nil {
		t.Fatal(err)
	}
	if err := update(fFresh, good, nil); err != nil {
		t.Fatal(err)
	}
	if !fReused.Reconstruct().EqualApprox(fFresh.Reconstruct(), 0) {
		t.Errorf("workspace reused after a failed update diverged: L(1,0) reused %v, fresh %v",
			fReused.LAt(1, 0), fFresh.LAt(1, 0))
	}
}
