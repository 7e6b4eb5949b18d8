package bennett

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// splitTermsReference is the map-based SplitTerms this package shipped
// until the grouping became a counting sort: the one-sided split, all
// rows or all columns, which SplitTerms still emits wherever no cover is
// smaller than both sides.
func splitTermsReference(delta []sparse.Entry) []Rank1Term {
	if len(delta) == 0 {
		return nil
	}
	rowSet, colSet := map[int]struct{}{}, map[int]struct{}{}
	for _, e := range delta {
		rowSet[e.Row], colSet[e.Col] = struct{}{}, struct{}{}
	}
	byCol := len(colSet) < len(rowSet)
	groups := map[int][]sparse.Entry{}
	for _, e := range delta {
		if byCol {
			groups[e.Col] = append(groups[e.Col], sparse.Entry{Row: e.Row, Val: e.Val})
		} else {
			groups[e.Row] = append(groups[e.Row], sparse.Entry{Row: e.Col, Val: e.Val})
		}
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	terms := make([]Rank1Term, 0, len(keys))
	for _, k := range keys {
		terms = append(terms, Rank1Term{Key: k, ByCol: byCol, W: groups[k]})
	}
	return terms
}

// distinctSides counts a delta's distinct rows and columns.
func distinctSides(delta []sparse.Entry) (rows, cols int) {
	rs, cs := map[int]bool{}, map[int]bool{}
	for _, e := range delta {
		rs[e.Row], cs[e.Col] = true, true
	}
	return len(rs), len(cs)
}

// bruteMinCover is the size of a minimum row/column cover of a delta's
// entries by enumeration: for every set S of rows, the cover S plus every
// column holding an entry in a row outside S. It needs at most 12
// distinct rows and 64 distinct columns.
func bruteMinCover(delta []sparse.Entry) int {
	rowAt, colAt := map[int]int{}, map[int]int{}
	for _, e := range delta {
		if _, ok := rowAt[e.Row]; !ok {
			rowAt[e.Row] = len(rowAt)
		}
		if _, ok := colAt[e.Col]; !ok {
			colAt[e.Col] = len(colAt)
		}
	}
	if len(rowAt) > 12 || len(colAt) > 64 {
		panic("bruteMinCover: too many rows or columns")
	}
	colsOf := make([]uint64, len(rowAt))
	for _, e := range delta {
		colsOf[rowAt[e.Row]] |= 1 << colAt[e.Col]
	}
	best := len(rowAt) + len(colAt)
	for s := 0; s < 1<<len(colsOf); s++ {
		var need uint64
		for r, m := range colsOf {
			if s&(1<<r) == 0 {
				need |= m
			}
		}
		best = min(best, bits.OnesCount(uint(s))+bits.OnesCount64(need))
	}
	return best
}

// checkSplitReassembles holds a split to its delta: no key twice on one
// side; each entry in exactly one term — its row's term when its row
// keys one, else its column's — with its value and in delta order.
func checkSplitReassembles(t *testing.T, delta []sparse.Entry, terms []Rank1Term) {
	t.Helper()
	type key struct {
		k     int
		byCol bool
	}
	seen := map[key]bool{}
	rowTerm := map[int]bool{}
	for _, tm := range terms {
		if seen[key{tm.Key, tm.ByCol}] || len(tm.W) == 0 {
			t.Fatalf("term %+v repeated or empty", key{tm.Key, tm.ByCol})
		}
		seen[key{tm.Key, tm.ByCol}] = true
		if !tm.ByCol {
			rowTerm[tm.Key] = true
		}
	}
	// Walk the delta in order; each entry must be the next unread one of
	// the term it belongs to.
	next := map[key]int{}
	idx := map[key]int{}
	for g, tm := range terms {
		idx[key{tm.Key, tm.ByCol}] = g
	}
	for k, e := range delta {
		want, at := key{e.Row, false}, sparse.Entry{Row: e.Col, Val: e.Val}
		if !rowTerm[e.Row] {
			want, at = key{e.Col, true}, sparse.Entry{Row: e.Row, Val: e.Val}
		}
		g, ok := idx[want]
		if !ok {
			t.Fatalf("entry %d %+v: no term for it (row or column %d)", k, e, want.k)
		}
		if w := terms[g].W; next[want] >= len(w) || w[next[want]] != at {
			t.Fatalf("entry %d %+v: term %+v does not hold it next", k, e, want)
		}
		next[want]++
	}
	for g, tm := range terms {
		if next[key{tm.Key, tm.ByCol}] != len(tm.W) {
			t.Fatalf("term %d holds %d entries, the delta gives it %d", g, len(tm.W), next[key{tm.Key, tm.ByCol}])
		}
	}
}

// crossDelta is a symmetric walk matrix's change in miniature: the full
// rows and columns of a few centres, in row-major order, where one row
// and one column term per centre cover what min(#rows, #cols) terms
// would.
func crossDelta(rng *xrand.Rand, n, centres int) []sparse.Entry {
	var out []sparse.Entry
	for _, c := range rng.Perm(n)[:centres] {
		for j := 0; j < n; j++ {
			out = append(out, sparse.Entry{Row: c, Col: j, Val: rng.Float64()}, sparse.Entry{Row: j, Col: c, Val: rng.Float64()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// TestSplitTermsMatchesReference: SplitTerms emits as few terms as a
// brute-force minimum cover; every split reassembles its delta; and where
// no cover beats the smaller side it is the reference split — same side,
// same keys in the same order, every W in delta order — for row-major
// deltas as sparse.Delta emits them, for shuffled ones with repeated
// positions, and for crosses, where the cover must be strictly smaller.
func TestSplitTermsMatchesReference(t *testing.T) {
	rng := xrand.New(4713)
	var deltas [][]sparse.Entry
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		delta := make([]sparse.Entry, rng.Intn(30))
		for k := range delta {
			delta[k] = sparse.Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64()}
		}
		if trial%2 == 0 {
			sort.SliceStable(delta, func(i, j int) bool { return delta[i].Row < delta[j].Row })
		}
		deltas = append(deltas, delta)
	}
	random := len(deltas)
	for trial := 0; trial < 40; trial++ {
		centres := 1 + rng.Intn(3)
		deltas = append(deltas, crossDelta(rng, 2*centres+1+rng.Intn(12-2*centres), centres))
	}
	smaller := 0
	for trial, delta := range deltas {
		got := SplitTerms(delta)
		checkSplitReassembles(t, delta, got)
		nr, nc := distinctSides(delta)
		best := bruteMinCover(delta)
		if len(got) != best {
			t.Fatalf("trial %d: %d terms, minimum cover %d", trial, len(got), best)
		}
		if best < min(nr, nc) {
			smaller++
			// A cross holds 2n entries per centre over all n columns.
			if trial >= random && best != len(delta)/nc {
				t.Fatalf("cross %d: %d terms, want one row and one column per centre", trial, best)
			}
			continue
		}
		if trial >= random {
			t.Fatalf("cross %d: no cover below min(%d, %d)", trial, nr, nc)
		}
		want := splitTermsReference(delta)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d terms, reference %d", trial, len(got), len(want))
		}
		for g := range got {
			if got[g].Key != want[g].Key || got[g].ByCol != want[g].ByCol || len(got[g].W) != len(want[g].W) {
				t.Fatalf("trial %d term %d: got key %d byCol %v (%d entries), reference key %d byCol %v (%d entries)",
					trial, g, got[g].Key, got[g].ByCol, len(got[g].W), want[g].Key, want[g].ByCol, len(want[g].W))
			}
			for k := range got[g].W {
				if got[g].W[k] != want[g].W[k] {
					t.Fatalf("trial %d term %d entry %d: got %+v, reference %+v", trial, g, k, got[g].W[k], want[g].W[k])
				}
			}
		}
	}
	if smaller <= len(deltas)-random {
		t.Errorf("only the crosses had a cover below min(#rows, #cols): the random family never exercised it")
	}
}

// TestMinimumSplitAccuracy: on a DBLP-like symmetric walk sequence,
// where every step's delta is a cross, the minimum split applies far
// fewer terms than the one-sided reference split and loses no accuracy.
// Clones of the same factors — the static container CLUDE keeps under
// the union's USSP and the dynamic one INC keeps — advance step by step
// by either split, and both solve within 1e-12 of a fresh factorization
// of each new matrix.
func TestMinimumSplitAccuracy(t *testing.T) {
	egs, err := gen.DBLPSim(gen.DBLPConfig{N: 300, T: 12, Communities: 3, InitialPapers: 260, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85))
	union := ems.Matrices[0].Pattern()
	for _, m := range ems.Matrices[1:] {
		union = union.Union(m.Pattern())
	}
	ord := order.Markowitz(union).Ordering
	mats := make([]*sparse.CSR, len(ems.Matrices))
	for i, m := range ems.Matrices {
		mats[i] = m.Permute(ord)
	}
	n := mats[0].N()
	rng := xrand.New(4714)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	solve := func(f lu.Factors, a *sparse.CSR) []float64 {
		b := a.MulVec(x)
		f.SolveInPlace(b)
		return b
	}

	static := lu.NewStaticFactors(lu.Symbolic(union.Permute(ord)))
	tight := lu.NewStaticFactors(lu.Symbolic(mats[0].Pattern()))
	for _, f := range []*lu.StaticFactors{static, tight} {
		if err := f.Factorize(mats[0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		base lu.Factors
	}{{"static", static}, {"dynamic", lu.NewDynamicFactors(tight)}} {
		minimum, oneSided := c.base.Clone(), c.base.Clone()
		var ws Workspace
		var stMin, stRef Stats
		var errMin, errRef float64
		for s := 1; s < len(mats); s++ {
			delta := sparse.Delta(mats[s-1], mats[s])
			if err := ws.ApplyTerms(minimum, SplitTerms(delta), &stMin); err != nil {
				t.Fatalf("%s step %d, minimum split: %v", c.name, s, err)
			}
			if err := ws.ApplyTerms(oneSided, splitTermsReference(delta), &stRef); err != nil {
				t.Fatalf("%s step %d, one-sided split: %v", c.name, s, err)
			}
			fresh := lu.NewStaticFactors(lu.Symbolic(mats[s].Pattern()))
			if err := fresh.Factorize(mats[s]); err != nil {
				t.Fatal(err)
			}
			want := solve(fresh, mats[s])
			errMin = max(errMin, sparse.NormInfDiff(solve(minimum, mats[s]), want))
			errRef = max(errRef, sparse.NormInfDiff(solve(oneSided, mats[s]), want))
		}
		t.Logf("%s: %d terms (one-sided %d), %d steps (%d); max |x − x_fresh| %.3g (one-sided %.3g)",
			c.name, stMin.Rank1Updates, stRef.Rank1Updates, stMin.StepsTouched, stRef.StepsTouched, errMin, errRef)
		if errMin > 1e-12 || errRef > 1e-12 {
			t.Errorf("%s: solve error %g with the minimum split, %g with the one-sided one; want both ≤ 1e-12", c.name, errMin, errRef)
		}
		if 2*stMin.Rank1Updates > stRef.Rank1Updates {
			t.Errorf("%s: the minimum split applied %d terms, the one-sided %d: crosses should at least halve them",
				c.name, stMin.Rank1Updates, stRef.Rank1Updates)
		}
	}
}

// FuzzSplitTerms decodes three bytes per entry (row, column, value) into
// a delta over at most 12 rows and 64 columns and holds the split to it:
// no panic, every entry reassembled into exactly one term of the right
// orientation in delta order, never more terms than min(#rows, #cols),
// and exactly as many as a brute-force minimum cover.
func FuzzSplitTerms(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 1, 0, 3})
	f.Add([]byte{3, 7, 9, 3, 7, 250, 5, 7, 1, 7, 5, 128})
	var cross []byte
	for j := byte(0); j < 9; j++ {
		cross = append(cross, 4, j, j+1, j, 4, j+2)
	}
	f.Add(cross)
	f.Fuzz(func(t *testing.T, data []byte) {
		var delta []sparse.Entry
		for k := 0; k+2 < len(data) && len(delta) < 96; k += 3 {
			delta = append(delta, sparse.Entry{Row: int(data[k] % 12), Col: int(data[k+1] % 64), Val: float64(int8(data[k+2]))})
		}
		terms := SplitTerms(delta)
		checkSplitReassembles(t, delta, terms)
		nr, nc := distinctSides(delta)
		if len(terms) > min(nr, nc) {
			t.Fatalf("%d terms over %d rows and %d columns", len(terms), nr, nc)
		}
		if best := bruteMinCover(delta); len(terms) != best {
			t.Fatalf("%d terms, minimum cover %d", len(terms), best)
		}
	})
}
