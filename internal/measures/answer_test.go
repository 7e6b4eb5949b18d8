package measures

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Tests of Engine.Answer, the serving layer's single-query path: through
// one workspace reused across query shapes, every answer must equal the
// allocating RWR / PPR / PageRank call, and the dense solve of the
// restart vector built by hand, bit for bit. Two graph shapes: disjoint
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

// denseReference solves q's restart vector the long way: (1−d)/|seeds|
// accumulated on every seed (or (1−d)/n everywhere for PageRank) in a
// dense vector of the original indices, one lu.Solver.Solve, and
// PageRank's normalization.
func denseReference(e *Engine, q Query) []float64 {
	n := e.dim()
	b := make([]float64, n)
	if q.Global {
		for i := range b {
			b[i] = (1 - e.D) / float64(n)
		}
	} else {
		for _, u := range q.Seeds {
			b[u] += (1 - e.D) / float64(len(q.Seeds))
		}
	}
	x := e.Solver.Solve(b)
	if q.Global {
		if s := sparse.Sum(x); s > 0 {
			sparse.Scale(x, 1/s)
		}
	}
	return x
}

// assertSingleQueries: a query of every shape — single seeds, seed
// sets whose duplicates must accumulate, the empty set (zero
// everywhere), a set of half the nodes and PageRank's dense
// right-hand side — answered through one reused workspace gives the
// allocating call's bits and the dense reference's.
func assertSingleQueries(t *testing.T, name string, e *Engine) {
	t.Helper()
	var ws lu.SolveWorkspace
	n := e.dim()
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	single := func(tag string, q Query, want []float64) {
		t.Helper()
		got := q
		e.Answer(&got, &ws)
		assertSameVector(t, name+" "+tag, got.Scores, want)
		assertSameVector(t, name+" "+tag+" reference", got.Scores, denseReference(e, q))
	}
	for u := 0; u < n; u += 17 {
		single("rwr", Query{Seeds: []int{u}}, e.RWR(u))
	}
	for _, seeds := range [][]int{{3}, {7, 7, 7}, {3, 50, 120}, {}, half} {
		single("ppr", Query{Seeds: seeds}, e.PPR(seeds))
	}
	single("pagerank", Query{Global: true}, e.PageRank())
}

func TestAnswerMatchesSolveOnCommunities(t *testing.T) {
	assertSingleQueries(t, "communities", communityEngine(t))
}

func TestAnswerMatchesSolveOnBlob(t *testing.T) {
	assertSingleQueries(t, "blob", blobEngine(t))
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
				q := Query{Seeds: []int{u}, TopK: k}
				e.Answer(&q, &ws)
				assertTopK(t, name, q, dense)
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

// TestBatchAnswersOutliveTheWorkspace: a full score vector handed out
// by Answer belongs to the caller — the serving layer files it in its
// cache — so no later Answer through the same workspace may write it,
// while top-k queries keep reusing the pooled dense scratch.
func TestBatchAnswersOutliveTheWorkspace(t *testing.T) {
	e := blobEngine(t)
	var ws lu.SolveWorkspace
	rwr, pr := Query{Seeds: []int{9}}, Query{Global: true}
	e.Answer(&rwr, &ws)
	e.Answer(&pr, &ws)
	keepRWR := append([]float64(nil), rwr.Scores...)
	keepPR := append([]float64(nil), pr.Scores...)

	// Dirty the pooled slot with every shape, twice.
	for round := 0; round < 2; round++ {
		for _, q := range []Query{
			{Seeds: []int{4, 9, 4}, TopK: 3}, {Global: true, TopK: 2},
			{Global: true}, {Seeds: []int{1}}, {Seeds: []int{2}, TopK: 5}, {Seeds: []int{2}},
		} {
			e.Answer(&q, &ws)
		}
	}
	assertSameVector(t, "kept rwr", rwr.Scores, keepRWR)
	assertSameVector(t, "kept pagerank", pr.Scores, keepPR)
	assertSameVector(t, "kept rwr vs fresh", rwr.Scores, e.RWR(9))
}
