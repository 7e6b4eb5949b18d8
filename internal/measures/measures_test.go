package measures

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := xrand.New(1000)
	base := gen.BarabasiAlbert(rng, 200, 3)
	// Orient edges randomly to get a directed graph with cycles.
	var es []graph.Edge
	for _, e := range base.Edges() {
		es = append(es, graph.Edge{From: e.From, To: e.To})
		if rng.Float64() < 0.5 {
			es = append(es, graph.Edge{From: e.To, To: e.From})
		}
	}
	return graph.New(200, true, es)
}

func TestRWRIsDistribution(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := e.RWR(5)
	for i, v := range x {
		if v < -1e-12 {
			t.Fatalf("negative probability at %d: %v", i, v)
		}
	}
	// With the halting convention mass can leak at dangling nodes, but
	// the total must stay in (0, 1].
	s := sparse.Sum(x)
	if s <= 0 || s > 1+1e-9 {
		t.Errorf("RWR mass %v outside (0,1]", s)
	}
	// The seed must carry the largest score at reasonable damping.
	if TopK(x, 1)[0] != 5 {
		t.Errorf("seed is not the top RWR node")
	}
}

func TestRWRSatisfiesFixedPoint(t *testing.T) {
	// x = d·W·x + (1−d)·e_u (paper Eq. 1).
	g := testGraph(t)
	d := 0.8
	e, err := NewEngine(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := 17
	x := e.RWR(u)
	w := columnNormalized(g)
	rhs := w.MulVec(x)
	for i := range rhs {
		rhs[i] = d * rhs[i]
	}
	rhs[u] += 1 - d
	if diff := sparse.NormInfDiff(x, rhs); diff > 1e-9 {
		t.Errorf("fixed point violated: %g", diff)
	}
}

func TestPPRMatchesRWRSingleSeed(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := e.RWR(3)
	b := e.PPR([]int{3})
	if sparse.NormInfDiff(a, b) > 1e-12 {
		t.Error("PPR single seed != RWR")
	}
	if got := e.PPR(nil); sparse.Sum(got) != 0 {
		t.Error("empty seed PPR should be zero")
	}
}

func TestPPRSeedSetLinearity(t *testing.T) {
	// PPR over {a, b} = average of single-seed PPRs (linearity of the
	// solve in the right-hand side).
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := e.RWR(4), e.RWR(9)
	both := e.PPR([]int{4, 9})
	for i := range both {
		want := (pa[i] + pb[i]) / 2
		if math.Abs(both[i]-want) > 1e-10 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestPageRankProperties(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr := e.PageRank()
	if math.Abs(sparse.Sum(pr)-1) > 1e-9 {
		t.Errorf("PageRank sum %v != 1", sparse.Sum(pr))
	}
	for _, v := range pr {
		if v < -1e-12 {
			t.Error("negative PageRank")
		}
	}
	// The highest in-degree hub must outrank the lowest in-degree node
	// and the average score.
	hub, low, hubIn, lowIn := 0, 0, -1, 1<<30
	for v := 0; v < g.N(); v++ {
		if g.InDegree(v) > hubIn {
			hub, hubIn = v, g.InDegree(v)
		}
		if g.InDegree(v) < lowIn {
			low, lowIn = v, g.InDegree(v)
		}
	}
	if hub == low {
		t.Fatal("degenerate graph: hub == low")
	}
	if pr[hub] <= pr[low] {
		t.Errorf("hub PR %v not above low-degree PR %v", pr[hub], pr[low])
	}
	if pr[hub] <= 1/float64(g.N()) {
		t.Errorf("hub PR %v not above uniform", pr[hub])
	}
}

func TestPowerIterationAgreesWithDirect(t *testing.T) {
	g := testGraph(t)
	d := 0.85
	e, err := NewEngine(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := 11
	direct := e.RWR(u)
	pi, iters := PowerIterationRWR(g, d, u, 1e-12, 10000)
	if iters >= 10000 {
		t.Fatal("power iteration did not converge")
	}
	if diff := sparse.NormInfDiff(direct, pi); diff > 1e-8 {
		t.Errorf("PI disagrees with direct solve: %g", diff)
	}
}

func TestMonteCarloRoughlyAgrees(t *testing.T) {
	g := testGraph(t)
	d := 0.85
	e, err := NewEngine(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := 2
	direct := e.RWR(u)
	mc := MonteCarloRWR(g, d, u, 400, 100, xrand.New(42))
	// MC is noisy; require the top node to match and gross correlation.
	if TopK(mc, 1)[0] != TopK(direct, 1)[0] {
		t.Error("MC top node differs from direct solve")
	}
	var dot, na, nb float64
	for i := range direct {
		dot += direct[i] * mc[i]
		na += direct[i] * direct[i]
		nb += mc[i] * mc[i]
	}
	if corr := dot / math.Sqrt(na*nb); corr < 0.9 {
		t.Errorf("MC correlation %v too low", corr)
	}
}

func TestSolveFreshGEMatchesEngine(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.Basis(g.N(), 7, 0.15)
	want := e.Solver.Solve(b)
	got, err := SolveFreshGE(g, 0.85, b)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.NormInfDiff(got, want) > 1e-9 {
		t.Error("fresh GE disagrees with engine solve")
	}
}

func TestDHTProperties(t *testing.T) {
	g := testGraph(t)
	target := 3
	h, err := DHT(g, 0.9, target)
	if err != nil {
		t.Fatal(err)
	}
	if h[target] != 0 {
		t.Errorf("h(target) = %v, want 0", h[target])
	}
	// Every non-target node has h ≥ 1 (at least one step).
	for v, hv := range h {
		if v != target && hv < 1-1e-9 {
			t.Errorf("h(%d) = %v < 1", v, hv)
		}
	}
	// A direct predecessor of the target should have smaller hitting
	// time than the overall maximum.
	maxH, pred := 0.0, -1
	for v := range h {
		if h[v] > maxH {
			maxH = h[v]
		}
		if g.HasEdge(v, target) && pred == -1 {
			pred = v
		}
	}
	if pred >= 0 && h[pred] >= maxH {
		t.Error("direct predecessor not closer than max")
	}
}

func TestSALSAProperties(t *testing.T) {
	g := testGraph(t)
	x, err := SALSA(g, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sparse.Sum(x)-1) > 1e-9 {
		t.Errorf("SALSA sum %v != 1", sparse.Sum(x))
	}
	for _, v := range x {
		if v < -1e-12 {
			t.Error("negative SALSA score")
		}
	}
}

func TestTopKAndRanks(t *testing.T) {
	x := []float64{0.1, 0.5, 0.3, 0.5}
	top := TopK(x, 2)
	if top[0] != 1 || top[1] != 3 {
		t.Errorf("TopK = %v, want [1 3]", top)
	}
	r := Ranks(x)
	if r[1] != 1 || r[3] != 2 || r[2] != 3 || r[0] != 4 {
		t.Errorf("Ranks = %v", r)
	}
}

// TestTopKTieBreakAscending pins the tie rule: equal scores resolve by
// ascending node id at every k. The input is chosen so the old
// selection sort (which compared by score only, over an index array
// its own swaps had shuffled) emitted the value-3 ties as [2 0].
func TestTopKTieBreakAscending(t *testing.T) {
	x := []float64{3, 5, 3, 5}
	got := TopK(x, 4)
	want := []int{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK(%v, 4) = %v, want %v", x, got, want)
		}
	}
	// Prefixes agree with the full ranking for every k.
	for k := 0; k <= 4; k++ {
		p := TopK(x, k)
		if len(p) != k {
			t.Fatalf("TopK k=%d returned %d entries", k, len(p))
		}
		for i := range p {
			if p[i] != want[i] {
				t.Fatalf("TopK k=%d = %v, not a prefix of %v", k, p, want)
			}
		}
	}
	r := Ranks(x)
	wantRanks := []int{3, 1, 4, 2}
	for i := range wantRanks {
		if r[i] != wantRanks[i] {
			t.Fatalf("Ranks(%v) = %v, want %v", x, r, wantRanks)
		}
	}
}

// TestSolverEngineBatchMatchesEngine checks that the workspace-reusing
// batch path (the serving layer's hot path) is bit-identical to the
// allocating calls, including through a graph-free solver engine.
func TestSolverEngineBatchMatchesEngine(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSolverEngine(0.85, e.Solver)
	var ws lu.SolveWorkspace
	same := func(tag string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s differs at %d: %v vs %v", tag, i, got[i], want[i])
			}
		}
	}
	for u := 0; u < g.N(); u++ {
		qs := []Query{{Seeds: []int{u}}}
		se.Batch(qs, true, &ws)
		same("RWR", qs[0].Scores, e.RWR(u))
	}
	qs := []Query{{Seeds: []int{0, 2}}}
	se.Batch(qs, true, &ws)
	same("PPR", qs[0].Scores, e.PPR([]int{0, 2}))
	qs = []Query{{Global: true}}
	se.Batch(qs, true, &ws)
	same("PageRank", qs[0].Scores, e.PageRank())

	multi := []Query{{Seeds: []int{1}}, {Seeds: []int{1}}, {Seeds: []int{3}}}
	se.Batch(multi, true, &ws)
	same("multi[0]", multi[0].Scores, e.RWR(1))
	same("multi[1]", multi[1].Scores, e.RWR(1))
	same("multi[2]", multi[2].Scores, e.RWR(3))
}

// TestTopKNaNSortsLast: NaN scores must sort after every real score
// (with ids ascending among themselves) — a bare > comparator is not
// a strict weak order under NaN and would scramble even the real
// entries input-dependently.
func TestTopKNaNSortsLast(t *testing.T) {
	nan := math.NaN()
	x := []float64{nan, 2, nan, 5, 2}
	got := TopK(x, 5)
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK with NaN = %v, want %v", got, want)
		}
	}
	r := Ranks(x)
	wantRanks := []int{4, 2, 5, 1, 3}
	for i := range wantRanks {
		if r[i] != wantRanks[i] {
			t.Fatalf("Ranks with NaN = %v, want %v", r, wantRanks)
		}
	}
}
