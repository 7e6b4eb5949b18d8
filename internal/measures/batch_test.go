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
// bit. Routes follow the block width, as in production: one query
// solves dense, k >= 2 queries form a block. Two graph shapes: disjoint
// communities, where a seed's scores are zero outside its community,
// and the scale-free test graph, one blob.

// blobEngine builds an engine over the shared directed scale-free test
// graph: one big component.
func blobEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testGraph(t), 0.85, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// communityEngine builds an engine over a DBLP-like graph of eight
// fully disjoint communities, each about an eighth of the nodes.
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

// assertSingleQueriesDense: a lone query of every shape takes the dense
// route — single seeds, seed sets whose duplicates must accumulate, the
// empty set (zero everywhere), a set of half the nodes and PageRank's
// dense right-hand side — with the allocating call's bits.
func assertSingleQueriesDense(t *testing.T, name string, e *Engine) {
	t.Helper()
	var ws lu.SolveWorkspace
	n := e.dim()
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	single := func(tag string, q Query, want []float64) {
		t.Helper()
		qs := []Query{q}
		if route := e.Batch(qs, &ws); route != lu.RouteDense {
			t.Fatalf("%s %s: took route %s, want dense", name, tag, route)
		}
		assertSameVector(t, name+" "+tag, qs[0].Scores, want)
	}
	for u := 0; u < n; u += 17 {
		single("rwr", Query{Seeds: []int{u}}, e.RWR(u))
	}
	for _, seeds := range [][]int{{3}, {7, 7, 7}, {3, 50, 120}, {}, half} {
		single("ppr", Query{Seeds: seeds}, e.PPR(seeds))
	}
	single("pagerank", Query{Global: true}, e.PageRank())
}

// The next two tests keep the names they had when a k = 1 solve could
// take a reach-restricted route: on disjoint communities, where that
// route fit, and on one blob, where its probe aborted. Every single
// query now solves dense on both graphs.

func TestBatchReachRouteMatchesDense(t *testing.T) {
	assertSingleQueriesDense(t, "communities", communityEngine(t))
}

func TestBatchProbeAbortFallsBackToDense(t *testing.T) {
	assertSingleQueriesDense(t, "blob", blobEngine(t))
}

func TestBatchTopKMatchesDense(t *testing.T) {
	for name, e := range map[string]*Engine{"communities": communityEngine(t), "blob": blobEngine(t)} {
		var ws lu.SolveWorkspace
		n := e.dim()
		rng := xrand.New(12)
		for trial := 0; trial < 10; trial++ {
			u := rng.Intn(n)
			dense := e.RWR(u)
			for _, k := range []int{1, 5, n / 8, n/8 + 7, n, n + 3} {
				qs := []Query{{Seeds: []int{u}, TopK: k}}
				if route := e.Batch(qs, &ws); route != lu.RouteDense {
					t.Fatalf("%s engine: top-k took route %s", name, route)
				}
				assertTopK(t, name, qs[0], dense)
			}
		}
	}
}

func TestTopKNaNAndNegative(t *testing.T) {
	// Scores exercising the comparator edges the RWR path never
	// produces: negative scores rank below the zeros, NaN after
	// everything, ties by ascending id.
	x := []float64{0, 2, 0, -1, 0, math.NaN(), 0, 0}
	want := []int{1, 0, 2, 4, 6, 7, 3, 5}
	got := TopK(x, len(x))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node[%d] = %d, want %d (got %v want %v)", i, got[i], want[i], got, want)
		}
	}
	if nodes := TopK(x, 0); len(nodes) != 0 {
		t.Fatalf("k=0 returned %v", nodes)
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
		route := e.Batch(qs, &ws)
		if wantBlock := k >= 2; (route == lu.RouteBlock) != wantBlock {
			t.Fatalf("k=%d batch took route %s", k, route)
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
	if route := e.Batch(qs, &ws); route != lu.RouteBlock {
		t.Fatalf("mixed block took route %s", route)
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
