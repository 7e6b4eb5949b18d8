package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/measures"
	"repro/internal/xrand"
)

const testDamping = 0.85

// pinnedEngine runs CLUDE over a tiny Wiki-like EMS with RetainFactors
// and pins every snapshot into a fresh serve engine. It also returns
// an independent reference clone of each snapshot's solver so tests
// can recompute answers cold, outside the engine. The Wiki-like graph
// is one blob: every reach probe on it aborts, so single queries take
// the dense route, and its panels are too narrow to pack.
func pinnedEngine(t *testing.T, cfg Config) (*Engine, *graph.EMS, map[int]*lu.Solver) {
	t.Helper()
	egs, err := gen.WikiSim(gen.WikiConfig{
		N: 150, T: 10, InitialEdges: 420, FinalEdges: 465,
		ChurnFrac: 0.25, EventRate: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pinEMS(t, cfg, graph.DeriveEMS(egs, graph.RWRMatrix(testDamping)))
}

// communityEngine is pinnedEngine over a DBLP-like sequence of eight
// fully disjoint communities — the other side of every route
// threshold: a seed's reach stays inside its community (the reach
// route), and the coauthor cliques give the packed panels real width
// (the panel route for wide blocks).
func communityEngine(t *testing.T, cfg Config) (*Engine, *graph.EMS, map[int]*lu.Solver) {
	t.Helper()
	egs, err := gen.DBLPSim(gen.DBLPConfig{
		N: 320, T: 6, Communities: 8, InitialPapers: 300,
		PapersPerDay: 4, MaxCoauthors: 7, CrossCommunity: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pinEMS(t, cfg, graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(testDamping)))
}

// pinEMS factors ems with CLUDE and pins every snapshot.
func pinEMS(t *testing.T, cfg Config, ems *graph.EMS) (*Engine, *graph.EMS, map[int]*lu.Solver) {
	t.Helper()
	cfg.Damping = testDamping
	eng := New(cfg)
	ref := make(map[int]*lu.Solver, ems.Len())
	_, err := core.Run(ems, core.CLUDE, core.Options{
		Alpha:         0.95,
		RetainFactors: true,
		OnFactors: func(i int, s *lu.Solver) {
			ref[i] = s.Clone()
			eng.Pin(i, s)
		},
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	return eng, ems, ref
}

// coldAnswer recomputes q's answer from the reference solver, outside
// the serving engine and its cache.
func coldAnswer(q Query, s *lu.Solver) ([]int, []float64) {
	me := measures.NewSolverEngine(testDamping, s)
	switch q.Measure {
	case MeasureRWR:
		return nil, me.RWR(q.Source)
	case MeasurePPR:
		return nil, me.PPR(q.Sources)
	case MeasurePageRank:
		return nil, me.PageRank()
	case MeasureTopK:
		full := me.RWR(q.Source)
		nodes := measures.TopK(full, q.K)
		scores := make([]float64, len(nodes))
		for i, v := range nodes {
			scores[i] = full[v]
		}
		return nodes, scores
	}
	panic("unknown measure " + q.Measure)
}

// mixedQuery derives a deterministic pseudo-random query over T
// snapshots and n nodes.
func mixedQuery(rng *xrand.Rand, T, n int) Query {
	q := Query{Snapshot: rng.Intn(T)}
	switch rng.Intn(4) {
	case 0:
		q.Measure = MeasureRWR
		q.Source = rng.Intn(n)
	case 1:
		q.Measure = MeasurePPR
		// Small seed pool so identical seed sets recur and hit the cache.
		q.Sources = []int{rng.Intn(8), 8 + rng.Intn(8)}
	case 2:
		q.Measure = MeasurePageRank
	case 3:
		q.Measure = MeasureTopK
		q.Source = rng.Intn(n)
		q.K = 1 + rng.Intn(10)
	}
	return q
}

// TestConcurrentMixedQueriesBitIdentical is the serving layer's
// acceptance gate: well over 1000 mixed queries across snapshots, from
// many goroutines (run it with -race), every answer — cache hit or
// cold — compared bit-for-bit against an independent cold solve.
func TestConcurrentMixedQueriesBitIdentical(t *testing.T) {
	eng, ems, ref := pinnedEngine(t, Config{Workers: 4, CacheSize: 512})
	defer eng.Close()

	const goroutines = 8
	const perG = 160 // 1280 queries total
	n := ems.N()
	T := ems.Len()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < perG; i++ {
				q := mixedQuery(rng, T, n)
				resp, err := eng.Query(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				nodes, scores := coldAnswer(q, ref[resp.Snapshot])
				if len(scores) != len(resp.Scores) || len(nodes) != len(resp.Nodes) {
					t.Errorf("%+v: shape mismatch", q)
					return
				}
				for j := range scores {
					if resp.Scores[j] != scores[j] {
						t.Errorf("%+v: score[%d] = %v, cold %v (hit=%v)",
							q, j, resp.Scores[j], scores[j], resp.CacheHit)
						return
					}
				}
				for j := range nodes {
					if resp.Nodes[j] != nodes[j] {
						t.Errorf("%+v: node[%d] = %d, cold %d (hit=%v)",
							q, j, resp.Nodes[j], nodes[j], resp.CacheHit)
						return
					}
				}
			}
		}(uint64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.Queries < goroutines*perG {
		t.Errorf("stats count %d queries, want >= %d", st.Queries, goroutines*perG)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits across repeated mixed queries")
	}
	if st.CacheHits+st.CacheMisses != st.Queries {
		t.Errorf("hits %d + misses %d != queries %d", st.CacheHits, st.CacheMisses, st.Queries)
	}
	if st.ColdSolves != st.CacheMisses {
		t.Errorf("cold solves %d != misses %d", st.ColdSolves, st.CacheMisses)
	}
}

// TestQueryCancellation covers the request-context paths: a context
// cancelled before (and racing with) the solve must surface ctx.Err.
func TestQueryCancellation(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 2})
	defer eng.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureRWR, Source: 1}); err != context.Canceled {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}

	// Racing cancellation: fire queries while cancelling concurrently;
	// every call must return either a valid answer or ctx.Err, never
	// hang or panic.
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			cancel()
			close(done)
		}()
		resp, err := eng.Query(ctx, Query{Snapshot: -1, Measure: MeasurePageRank})
		if err == nil {
			if len(resp.Scores) == 0 {
				t.Fatal("empty scores on successful query")
			}
		} else if err != context.Canceled {
			t.Fatalf("racing cancel returned %v", err)
		}
		<-done
	}
}

// TestSnapshotStoreBound verifies the bounded store: pinning beyond
// MaxSnapshots evicts the oldest snapshots, queries against evicted
// snapshots fail with ErrUnknownSnapshot, and Snapshot: -1 resolves to
// the latest pin.
func TestSnapshotStoreBound(t *testing.T) {
	eng, ems, _ := pinnedEngine(t, Config{Workers: 1, MaxSnapshots: 4})
	defer eng.Close()

	snaps := eng.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("retained %v, want 4 snapshots", snaps)
	}
	want := []int{ems.Len() - 4, ems.Len() - 3, ems.Len() - 2, ems.Len() - 1}
	for i := range want {
		if snaps[i] != want[i] {
			t.Fatalf("retained %v, want %v", snaps, want)
		}
	}
	if eng.Latest() != ems.Len()-1 {
		t.Fatalf("latest %d, want %d", eng.Latest(), ems.Len()-1)
	}

	ctx := context.Background()
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureRWR, Source: 0}); err == nil {
		t.Fatal("query for evicted snapshot succeeded")
	}
	resp, err := eng.Query(ctx, Query{Snapshot: -1, Measure: MeasureRWR, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshot != ems.Len()-1 {
		t.Fatalf("latest query resolved to %d, want %d", resp.Snapshot, ems.Len()-1)
	}

	st := eng.Stats()
	if st.SnapshotsEvicted != int64(ems.Len()-4) {
		t.Errorf("evicted %d, want %d", st.SnapshotsEvicted, ems.Len()-4)
	}
	if st.Retained != 4 {
		t.Errorf("retained %d, want 4", st.Retained)
	}
}

// TestQueryValidation exercises the rejection paths.
func TestQueryValidation(t *testing.T) {
	eng, ems, _ := pinnedEngine(t, Config{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	n := ems.N()

	bad := []Query{
		{Snapshot: 0, Measure: "betweenness"},
		{Snapshot: 0, Measure: MeasureRWR, Source: n},
		{Snapshot: 0, Measure: MeasureRWR, Source: -1},
		{Snapshot: 0, Measure: MeasureTopK, Source: 0, K: 0},
		{Snapshot: 0, Measure: MeasurePPR},
		{Snapshot: 0, Measure: MeasurePPR, Sources: []int{n + 2}},
		{Snapshot: 0, Measure: MeasureRWR, Source: 0, Damping: 0.5},
	}
	for _, q := range bad {
		if _, err := eng.Query(ctx, q); err == nil {
			t.Errorf("%+v accepted, want error", q)
		}
	}

	// PPR seed sets are canonicalized: permutations share one cache
	// entry and one answer.
	a, err := eng.Query(ctx, Query{Snapshot: 1, Measure: MeasurePPR, Sources: []int{5, 2, 9}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Query(ctx, Query{Snapshot: 1, Measure: MeasurePPR, Sources: []int{9, 5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit {
		t.Error("permuted seed set missed the cache")
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("permuted seeds changed answer at %d", i)
		}
	}
}

// TestEmptyEngine covers the no-snapshots and closed states, and that
// Close is idempotent.
func TestEmptyEngine(t *testing.T) {
	eng := New(Config{Workers: 1, Damping: testDamping})
	if _, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasurePageRank}); err != ErrNoSnapshots {
		t.Fatalf("empty engine returned %v, want ErrNoSnapshots", err)
	}
	eng.Close()
	eng.Close() // second Close must be a no-op, not a panic
	if _, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasurePageRank}); err != ErrClosed {
		t.Fatalf("closed engine returned %v, want ErrClosed", err)
	}
}

// TestEvictionPurgesCache pins past the store bound after answers were
// cached and checks that an evicted snapshot is consistently gone: the
// exact query that was a cache hit before eviction now fails with
// ErrUnknownSnapshot like every other query against that snapshot.
func TestEvictionPurgesCache(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1, MaxSnapshots: 32})
	defer eng.Close()
	ctx := context.Background()

	q := Query{Snapshot: 0, Measure: MeasureRWR, Source: 3}
	if _, err := eng.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if resp, err := eng.Query(ctx, q); err != nil || !resp.CacheHit {
		t.Fatalf("warmup query not cached (err=%v)", err)
	}

	// Re-pin clones under fresh indices until snapshot 0 falls out.
	next := eng.Latest() + 1
	for i := 0; i < 32; i++ {
		eng.Pin(next+i, ref[0].Clone())
	}
	for _, s := range eng.Snapshots() {
		if s == 0 {
			t.Fatal("snapshot 0 still retained after 32 more pins")
		}
	}
	if _, err := eng.Query(ctx, q); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("cached query against evicted snapshot returned %v, want ErrUnknownSnapshot", err)
	}
}

// TestDuplicateSeedsCanonicalized: PPR restart mass is uniform over
// the seed *set* — a repeated seed must neither change the answer nor
// split the cache entry.
func TestDuplicateSeedsCanonicalized(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	single, err := eng.Query(ctx, Query{Snapshot: 2, Measure: MeasurePPR, Sources: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := eng.Query(ctx, Query{Snapshot: 2, Measure: MeasurePPR, Sources: []int{4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !doubled.CacheHit {
		t.Error("duplicate-seed query missed the canonical cache entry")
	}
	_, cold := coldAnswer(Query{Measure: MeasurePPR, Sources: []int{4}}, ref[2])
	for i := range cold {
		if single.Scores[i] != cold[i] || doubled.Scores[i] != cold[i] {
			t.Fatalf("duplicate seeds changed the answer at %d: %v / %v vs %v",
				i, single.Scores[i], doubled.Scores[i], cold[i])
		}
	}
}

// TestRePinInvalidatesCache: pinning new factors under an existing
// snapshot index must not serve answers cached from the old factors.
func TestRePinInvalidatesCache(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1})
	defer eng.Close()
	ctx := context.Background()

	// Global PageRank: any edge difference between the snapshots
	// shifts it, so the old-vs-new comparison below cannot be vacuous.
	q := Query{Snapshot: 0, Measure: MeasurePageRank}
	before, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Replace snapshot 0's factors with snapshot 5's.
	eng.Pin(0, ref[5].Clone())
	after, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Error("re-pinned snapshot served a stale cache hit")
	}
	_, cold := coldAnswer(q, ref[5])
	same := true
	for i := range cold {
		if after.Scores[i] != cold[i] {
			t.Fatalf("re-pinned answer differs from new factors at %d", i)
		}
		if after.Scores[i] != before.Scores[i] {
			same = false
		}
	}
	if same {
		t.Fatal("test vacuous: old and new factors gave identical answers")
	}
}

// TestLatestSurvivesOutOfOrderEviction: evicting the highest snapshot
// index (possible with out-of-order pins) must re-resolve latest to a
// retained snapshot instead of leaving Snapshot: -1 queries broken.
func TestLatestSurvivesOutOfOrderEviction(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1})
	defer eng.Close()

	small := New(Config{Workers: 1, Damping: testDamping, MaxSnapshots: 2})
	defer small.Close()
	small.Pin(100, ref[0].Clone())
	small.Pin(1, ref[1].Clone())
	small.Pin(2, ref[2].Clone()) // evicts 100, the previous latest
	if got := small.Latest(); got != 2 {
		t.Fatalf("latest = %d after evicting 100, want 2", got)
	}
	resp, err := small.Query(context.Background(), Query{Snapshot: -1, Measure: MeasurePageRank})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshot != 2 {
		t.Fatalf("latest query resolved to %d, want 2", resp.Snapshot)
	}
}

// TestSparsePathStatsAndEquivalence runs the same query shapes on both
// sides of the solver's reach threshold — disjoint communities, where
// every seeded query takes the reach-restricted route, and the
// Wiki-like blob, where every probe aborts and the dense substitution
// answers — and checks that (a) every answer equals an independent
// cold dense solve bit for bit, (b) the path counters add up, and (c)
// the community engine actually took the reach route and measured a
// reach fraction while the blob engine recorded real fallbacks.
func TestSparsePathStatsAndEquivalence(t *testing.T) {
	reach, cems, cref := communityEngine(t, Config{Workers: 2})
	defer reach.Close()
	blob, wems, wref := pinnedEngine(t, Config{Workers: 2})
	defer blob.Close()

	ctx := context.Background()
	queriesFor := func(n int, seeds []int) []Query {
		return []Query{
			{Snapshot: 0, Measure: MeasureRWR, Source: 3},
			{Snapshot: 1, Measure: MeasureRWR, Source: n - 1},
			{Snapshot: 2, Measure: MeasureTopK, Source: 5, K: 7},
			{Snapshot: 3, Measure: MeasurePPR, Sources: seeds},
			{Snapshot: 4, Measure: MeasurePageRank},
		}
	}
	const seeded = 4 // every query above but pagerank
	for _, side := range []struct {
		name  string
		eng   *Engine
		n     int
		seeds []int // one seed keeps the community-side reach inside one community
		ref   map[int]*lu.Solver
	}{
		{"communities", reach, cems.N(), []int{2}, cref},
		{"blob", blob, wems.N(), []int{2, 9, 40}, wref},
	} {
		for _, q := range queriesFor(side.n, side.seeds) {
			nodes, scores := coldAnswer(q, side.ref[q.Snapshot])
			a, err := side.eng.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, side.name+" "+q.Measure, a, nodes, scores)
		}
	}

	rst := reach.Stats()
	// Inside a community every rwr/topk/ppr cold solve fits the reach
	// cap; only pagerank is dense, and it never probes.
	if rst.SparseSolves != seeded {
		t.Errorf("community engine: %d sparse solves, want %d", rst.SparseSolves, seeded)
	}
	if rst.DenseSolves != 1 {
		t.Errorf("community engine: %d dense solves, want 1 (pagerank)", rst.DenseSolves)
	}
	if rst.SparseFallbacks != 0 {
		t.Errorf("community engine: %d fallbacks, want 0", rst.SparseFallbacks)
	}
	if rst.SparseSolves+rst.DenseSolves != rst.ColdSolves {
		t.Errorf("sparse %d + dense %d != cold %d", rst.SparseSolves, rst.DenseSolves, rst.ColdSolves)
	}
	if rst.AvgReachFrac <= 0 || rst.AvgReachFrac > 0.25 {
		t.Errorf("community engine: avg reach fraction %v outside (0, 0.25]", rst.AvgReachFrac)
	}

	bst := blob.Stats()
	// On the blob the probes make real decisions: a hub's reach is
	// nearly everything (abort, dense), a dangling node's a single row.
	// Every seeded cold solve is booked as exactly one of the two.
	if bst.SparseFallbacks == 0 {
		t.Errorf("blob engine recorded no probe abort: %+v", bst)
	}
	if bst.SparseSolves+bst.SparseFallbacks != seeded {
		t.Errorf("blob engine: %d sparse + %d fallbacks != %d seeded queries", bst.SparseSolves, bst.SparseFallbacks, seeded)
	}
	if bst.DenseSolves != bst.SparseFallbacks+1 {
		t.Errorf("blob engine: %d dense solves, want %d fallbacks + pagerank", bst.DenseSolves, bst.SparseFallbacks)
	}
	if bst.SparseSolves+bst.DenseSolves != bst.ColdSolves {
		t.Errorf("blob engine: sparse %d + dense %d != cold %d", bst.SparseSolves, bst.DenseSolves, bst.ColdSolves)
	}
}
