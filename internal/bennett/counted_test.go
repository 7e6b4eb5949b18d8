package bennett

import (
	"errors"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// bothPaths applies the same terms to two equal containers, one through
// the counted out-of-structure check and one through the forced rescan,
// and requires factors, counters and error to agree exactly.
func bothPaths(t *testing.T, label string, counted, rescanned *lu.StaticFactors, wsC, wsR *Workspace, terms []Rank1Term) (Stats, error) {
	t.Helper()
	var stC, stR Stats
	errC := wsC.ApplyTerms(counted, terms, &stC)
	errR := wsR.ApplyTerms(rescanned, terms, &stR)
	if (errC == nil) != (errR == nil) || (errC != nil && errC.Error() != errR.Error()) {
		t.Fatalf("%s: counted path returned %v, rescan %v", label, errC, errR)
	}
	if stC != stR {
		t.Fatalf("%s: counted stats %+v, rescan %+v", label, stC, stR)
	}
	if !staticBitEqual(counted, rescanned) {
		t.Fatalf("%s: factors differ between the counted path and the rescan", label)
	}
	return stC, errC
}

// TestCountedExtrasMatchRescan is the property behind rank1Static's
// counted check: skipping staticExtras when the structural walk met the
// whole support tail changes nothing — not a factor bit, not a counter,
// not an error — on random chains inside a USSP.
func TestCountedExtrasMatchRescan(t *testing.T) {
	rng := xrand.New(4711)
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		mats := []*sparse.CSR{randomDominant(rng, n, 4*n)}
		union := mats[0].Pattern()
		for s := 0; s < 6; s++ {
			next := applyEntries(mats[s], smallDelta(rng, mats[s], 2+rng.Intn(8)))
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
		counted, rescanned := build(), build()
		var wsC, wsR Workspace
		wsR.ForceRescan(n)
		steps := 0
		for s := 1; s < len(mats); s++ {
			st, err := bothPaths(t, "chain", counted, rescanned, &wsC, &wsR, SplitTerms(sparse.Delta(mats[s-1], mats[s])))
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, s, err)
			}
			steps += st.StepsTouched
		}
		if steps == 0 {
			t.Fatalf("trial %d: the chain touched no elimination step", trial)
		}
	}
}

// TestCountedExtrasOutsideTheStructure drives the cases where a support
// position does lie outside the frozen structure, so the count must
// send the step to staticExtras: a negligible value (dropped), a
// significant one (ErrOutOfPattern, and the workspace clean for the
// next update), and a support entry that cancelled to an exact zero
// (skipped, not counted as dropped).
func TestCountedExtrasOutsideTheStructure(t *testing.T) {
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
	// Column-0 terms: z = e_0, so pivot 0 is a two-sided step whose L
	// column holds row 1 only; row 4 is outside it.
	term := func(w ...sparse.Entry) []Rank1Term {
		return []Rank1Term{{Key: 0, ByCol: true, W: w}}
	}
	var wsC, wsR Workspace
	wsR.ForceRescan(n)

	st, err := bothPaths(t, "negligible", build(), build(), &wsC, &wsR,
		term(sparse.Entry{Row: 0, Val: 0.5}, sparse.Entry{Row: 4, Val: 1e-12}))
	// Dropped at pivot 0 and again at pivot 1, which y and z both reach
	// through L(1,0) and U(0,1).
	if err != nil || st.Dropped != 2 {
		t.Errorf("negligible outside value: err %v, dropped %d; want nil, 2", err, st.Dropped)
	}

	st, err = bothPaths(t, "cancelled", build(), build(), &wsC, &wsR,
		term(sparse.Entry{Row: 0, Val: 0.5}, sparse.Entry{Row: 4, Val: 0.25}, sparse.Entry{Row: 4, Val: -0.25}))
	if err != nil || st.Dropped != 0 {
		t.Errorf("exactly cancelled outside value: err %v, dropped %d; want nil, 0", err, st.Dropped)
	}

	_, err = bothPaths(t, "significant", build(), build(), &wsC, &wsR,
		term(sparse.Entry{Row: 0, Val: 0.5}, sparse.Entry{Row: 4, Val: 0.5}))
	if !errors.Is(err, ErrOutOfPattern) {
		t.Fatalf("significant outside value: got %v, want ErrOutOfPattern", err)
	}
	// Both workspaces just failed mid-recurrence, after promoting y[1]
	// through L(1,0). The next update must not see that residue.
	good := term(sparse.Entry{Row: 0, Val: 0.2})
	reused, fresh := build(), build()
	if _, err := bothPaths(t, "after failure", reused, build(), &wsC, &wsR, good); err != nil {
		t.Fatal(err)
	}
	if err := new(Workspace).ApplyTerms(fresh, good, nil); err != nil {
		t.Fatal(err)
	}
	if !staticBitEqual(reused, fresh) {
		t.Errorf("workspace reused after a failed update diverged: L(1,0) reused %v, fresh %v", reused.LAt(1, 0), fresh.LAt(1, 0))
	}
}

// TestApplyTermsZeroAlloc: on a warm workspace the CLUDE inner loop — a
// delta's pre-split rank-1 terms applied to a static container —
// allocates nothing.
func TestApplyTermsZeroAlloc(t *testing.T) {
	rng := xrand.New(4712)
	n := 60
	a := randomDominant(rng, n, 5*n)
	b := applyEntries(a, smallDelta(rng, a, 12))
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern().Union(b.Pattern())))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	there, back := SplitTerms(sparse.Delta(a, b)), SplitTerms(sparse.Delta(b, a))
	var ws Workspace
	var st Stats
	step := func() {
		if err := ws.ApplyTerms(f, there, &st); err != nil {
			t.Fatal(err)
		}
		if err := ws.ApplyTerms(f, back, &st); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm: scratch vectors and support lists reach their size
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per warm there-and-back update of %d rank-1 terms, want 0", allocs, len(there)+len(back))
	}
	if st.Rank1Updates == 0 || st.StepsTouched == 0 {
		t.Fatalf("nothing was applied: %+v", st)
	}
}
