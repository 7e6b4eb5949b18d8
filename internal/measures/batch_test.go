package measures

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// Tests of Engine.Batch: whichever route lu.Solver.SolveRHS picks, every
// answer must equal the allocating RWR / PPR / PageRank call bit for
// bit. Routes are chosen by input, as in production: a graph of
// disjoint communities keeps a seed's reach inside its community (the
// reach route); the scale-free test graph is one blob whose reach is
// nearly everything (probe abort, dense route); k >= 2 queries form a
// block.

// blobEngine builds an engine over the shared directed scale-free test
// graph: one big component, so every reach probe aborts.
func blobEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testGraph(t), 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// communityEngine builds an engine over a DBLP-like graph of eight
// fully disjoint communities: each holds about an eighth of the nodes,
// well under the solver's reach cap.
func communityEngine(t *testing.T) *Engine {
	t.Helper()
	egs, err := gen.DBLPSim(gen.DBLPConfig{
		N: 320, T: 1, Communities: 8, InitialPapers: 400,
		PapersPerDay: 1, MaxCoauthors: 4, CrossCommunity: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(egs.Snapshots[0], 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertSameVector asserts bitwise equality of two score vectors.
func assertSameVector(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: score[%d] = %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// assertTopK asserts a top-k answer against the dense reference.
func assertTopK(t *testing.T, tag string, q Query, dense []float64) {
	t.Helper()
	wantNodes := TopK(dense, q.TopK)
	if len(q.Nodes) != len(wantNodes) || len(q.Scores) != len(wantNodes) {
		t.Fatalf("%s k=%d: %d nodes / %d scores, want %d", tag, q.TopK, len(q.Nodes), len(q.Scores), len(wantNodes))
	}
	for i := range wantNodes {
		if q.Nodes[i] != wantNodes[i] {
			t.Fatalf("%s k=%d node[%d] = %d, want %d", tag, q.TopK, i, q.Nodes[i], wantNodes[i])
		}
		if q.Scores[i] != dense[wantNodes[i]] {
			t.Fatalf("%s k=%d score[%d] = %v, want %v", tag, q.TopK, i, q.Scores[i], dense[wantNodes[i]])
		}
	}
}

func TestBatchReachRouteMatchesDense(t *testing.T) {
	e := communityEngine(t)
	var ws lu.SolveWorkspace
	n := e.dim()
	for u := 0; u < n; u += 17 {
		qs := []Query{{Seeds: []int{u}}}
		rep := e.Batch(qs, &ws)
		if rep.Route != lu.RouteReach || rep.ReachRows == 0 || rep.ReachRows > n/4 {
			t.Fatalf("RWR(%d) on disjoint communities reported %+v, want the reach route", u, rep)
		}
		assertSameVector(t, "rwr", qs[0].Scores, e.RWR(u))
	}
	// Seed sets: duplicates must accumulate, the empty set must score
	// zero everywhere, and whatever route a multi-community set takes
	// the bits must not move.
	for _, seeds := range [][]int{{3}, {7, 7, 7}, {3, 50, 120}, {}} {
		qs := []Query{{Seeds: seeds}}
		e.Batch(qs, &ws)
		assertSameVector(t, "ppr", qs[0].Scores, e.PPR(seeds))
	}
}

func TestBatchProbeAbortFallsBackToDense(t *testing.T) {
	e := blobEngine(t)
	var ws lu.SolveWorkspace
	qs := []Query{{Seeds: []int{0}}}
	rep := e.Batch(qs, &ws)
	if rep.Route != lu.RouteDense || !rep.ProbeAborted {
		t.Fatalf("hub RWR on one big component reported %+v, want probe abort then dense", rep)
	}
	assertSameVector(t, "rwr", qs[0].Scores, e.RWR(0))

	// A seed set already larger than the reach cap skips the probe.
	big := make([]int, e.dim()/2)
	for i := range big {
		big[i] = i
	}
	qs = []Query{{Seeds: big}}
	if rep := e.Batch(qs, &ws); rep.Route != lu.RouteDense || !rep.ProbeAborted {
		t.Fatalf("oversized seed set reported %+v, want dense", rep)
	}
	assertSameVector(t, "ppr", qs[0].Scores, e.PPR(big))

	// PageRank's right-hand side is dense: it never probes.
	qs = []Query{{Global: true}}
	if rep := e.Batch(qs, &ws); rep.Route != lu.RouteDense || rep.ProbeAborted {
		t.Fatalf("pagerank reported %+v, want dense without a probe", rep)
	}
	assertSameVector(t, "pagerank", qs[0].Scores, e.PageRank())
}

func TestBatchTopKMatchesDense(t *testing.T) {
	for name, e := range map[string]*Engine{"reach": communityEngine(t), "dense": blobEngine(t)} {
		var ws lu.SolveWorkspace
		n := e.dim()
		rng := xrand.New(12)
		for trial := 0; trial < 10; trial++ {
			u := rng.Intn(n)
			dense := e.RWR(u)
			for _, k := range []int{1, 5, n / 8, n/8 + 7, n, n + 3} {
				qs := []Query{{Seeds: []int{u}, TopK: k}}
				rep := e.Batch(qs, &ws)
				if wantReach := name == "reach"; (rep.Route == lu.RouteReach) != wantReach {
					t.Fatalf("%s engine: top-k took route %s", name, rep.Route)
				}
				assertTopK(t, name, qs[0], dense)
			}
		}
	}
}

func TestTopKSparseNaNAndNegative(t *testing.T) {
	// Synthetic supports exercising the comparator edges the RWR path
	// never produces: negative scores rank below the implicit zeros,
	// NaN after everything.
	sp := SparseScores{
		N:   8,
		Idx: []int{1, 3, 5, 6},
		Val: []float64{2, -1, math.NaN(), 0},
	}
	dense := sp.Dense()
	wantNodes := TopK(dense, sp.N)
	gotNodes, _ := TopKSparse(sp, sp.N)
	for i := range wantNodes {
		if gotNodes[i] != wantNodes[i] {
			t.Fatalf("node[%d] = %d, want %d (got %v want %v)", i, gotNodes[i], wantNodes[i], gotNodes, wantNodes)
		}
	}
	if nodes, scores := TopKSparse(sp, 0); len(nodes) != 0 || len(scores) != 0 {
		t.Fatalf("k=0 returned %v / %v", nodes, scores)
	}
}

// TestBatchBlockMatchesSingles: every row of a blocked answer must be
// bit-identical to the single-query path — mixed measures, duplicate
// and empty seed sets (which must stay the zero vector without
// poisoning their block neighbors), top-k cuts — and the workspace must
// be reusable across widths.
func TestBatchBlockMatchesSingles(t *testing.T) {
	e := blobEngine(t)
	n := e.dim()
	rng := xrand.New(3)
	var ws lu.SolveWorkspace
	for _, k := range []int{1, 2, 7} {
		qs := make([]Query, k)
		for i := range qs {
			qs[i].Seeds = []int{rng.Intn(n)}
		}
		rep := e.Batch(qs, &ws)
		if wantBlock := k >= 2; (rep.Route == lu.RouteBlock) != wantBlock {
			t.Fatalf("k=%d batch took route %s", k, rep.Route)
		}
		for r := range qs {
			assertSameVector(t, "rwr row", qs[r].Scores, e.RWR(qs[r].Seeds[0]))
		}
	}

	qs := []Query{
		{Seeds: []int{3, 7, 7, 40}},
		{Seeds: []int{}},
		{Global: true},
		{Seeds: []int{0}},
		{Seeds: []int{9}, TopK: 6},
		{Seeds: []int{5, 5, 5}},
	}
	if rep := e.Batch(qs, &ws); rep.Route != lu.RouteBlock {
		t.Fatalf("mixed block took route %s", rep.Route)
	}
	assertSameVector(t, "ppr dup", qs[0].Scores, e.PPR(qs[0].Seeds))
	assertSameVector(t, "ppr empty", qs[1].Scores, e.PPR(nil))
	assertSameVector(t, "pagerank", qs[2].Scores, e.PageRank())
	assertSameVector(t, "rwr", qs[3].Scores, e.RWR(0))
	assertTopK(t, "topk", qs[4], e.RWR(9))
	assertSameVector(t, "ppr triple", qs[5].Scores, e.PPR(qs[5].Seeds))
}

// TestBatchAnswersOutliveTheWorkspace: a full score vector handed out
// by Batch belongs to the caller — the serving layer files it in its
// cache — so no later Batch through the same workspace may write it,
// while top-k queries keep reusing the slot's dense scratch.
func TestBatchAnswersOutliveTheWorkspace(t *testing.T) {
	e := blobEngine(t)
	var ws lu.SolveWorkspace
	first := []Query{{Seeds: []int{9}}, {Global: true}}
	e.Batch(first, &ws)
	keepRWR := append([]float64(nil), first[0].Scores...)
	keepPR := append([]float64(nil), first[1].Scores...)

	// Dirty the same slots with every shape, twice.
	for round := 0; round < 2; round++ {
		e.Batch([]Query{{Seeds: []int{4, 9, 4}, TopK: 3}, {Global: true, TopK: 2}}, &ws)
		e.Batch([]Query{{Global: true}, {Seeds: []int{1}}}, &ws)
		e.Batch([]Query{{Seeds: []int{2}, TopK: 5}}, &ws)
		e.Batch([]Query{{Seeds: []int{2}}}, &ws)
	}
	assertSameVector(t, "kept rwr", first[0].Scores, keepRWR)
	assertSameVector(t, "kept pagerank", first[1].Scores, keepPR)
	assertSameVector(t, "kept rwr vs fresh", first[0].Scores, e.RWR(9))
}
