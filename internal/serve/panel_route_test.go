package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/lu"
)

// Tests of how the worker books the route lu.Solver.SolveRHS reports:
// every gathered group lands in exactly one of SingleGroups /
// PanelSolves / ScalarBlockSolves, panel-routed blocks are
// bit-identical to scalar-routed ones and to cold single solves, live
// groups never pack, and the per-worker scratch reuses capacity as
// batch widths jitter. Routes are picked by input, as in production:
// the community engine's factors have wide panels and small reaches,
// the Wiki-like engine's have neither, and a live source is never
// frozen.

// blockedQueries is a route-compatible query set against one snapshot
// (negative: the live source), exactly as wide as one worker gather.
func blockedQueries(snap int) []Query {
	return []Query{
		{Snapshot: snap, Measure: MeasureRWR, Source: 3},
		{Snapshot: snap, Measure: MeasureRWR, Source: 11},
		{Snapshot: snap, Measure: MeasurePPR, Sources: []int{2, 9}},
		{Snapshot: snap, Measure: MeasureTopK, Source: 5, K: 7},
		{Snapshot: snap, Measure: MeasurePageRank},
		{Snapshot: snap, Measure: MeasurePPR, Sources: []int{0}},
		{Snapshot: snap, Measure: MeasureRWR, Source: 40},
		{Snapshot: snap, Measure: MeasureRWR, Source: 77},
	}
}

// runBlockedGroup attaches live as a gated live source, wedges the
// engine's single worker on a live query against it, piles qs behind
// it so they gather into one batch, and returns the responses.
func runBlockedGroup(t *testing.T, eng *Engine, live *lu.Solver, qs []Query) []*Response {
	t.Helper()
	// View call 1 is the gating query's resolve; call 2 is the worker's
	// solve view — the point to wedge so followers pile up in the queue.
	g := newGatedLive(live, 2)
	eng.AttachLive(g)

	liveDone := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 1})
		liveDone <- err
	}()
	<-g.entered

	resps := make([]*Response, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = eng.Query(context.Background(), q)
		}()
	}
	waitFor(t, func() bool { return eng.Stats().Admitted == int64(1+len(qs)) }, "group admission")

	close(g.release)
	wg.Wait()
	if err := <-liveDone; err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
	}
	return resps
}

// TestPanelRoutedGroupBitIdentical queues a full gather of distinct
// queries against one pinned snapshot of the community engine — wide
// panels, frozen static factors: the supernodal route — and holds
// every answer against an independent cold solve. It then reruns the
// identical queries against the same factors attached as a live source
// — never frozen: the scalar block — and compares the two engines'
// answers byte for byte: routing is purely an execution-schedule
// decision.
func TestPanelRoutedGroupBitIdentical(t *testing.T) {
	const snap = 4
	cfg := Config{Workers: 1, QueueDepth: 16, CacheSize: 512}

	eng, _, ref := communityEngine(t, cfg)
	defer eng.Close()
	qs := blockedQueries(snap)
	panel := runBlockedGroup(t, eng, ref[5].Clone(), qs)

	st := eng.Stats()
	if st.BlockSolves != 1 || st.BlockedRHS != int64(len(qs)) {
		t.Fatalf("BlockSolves=%d BlockedRHS=%d, want one block of %d", st.BlockSolves, st.BlockedRHS, len(qs))
	}
	if st.PanelSolves != 1 || st.PanelRHS != int64(len(qs)) || st.ScalarBlockSolves != 0 {
		t.Fatalf("PanelSolves=%d PanelRHS=%d ScalarBlockSolves=%d, want the block panel-routed",
			st.PanelSolves, st.PanelRHS, st.ScalarBlockSolves)
	}
	if st.PanelPacks != 1 {
		t.Fatalf("PanelPacks=%d, want exactly one lazy pack for the one solver used", st.PanelPacks)
	}
	// The gated live query was a group of one.
	if st.SingleGroups < 1 {
		t.Fatalf("SingleGroups=%d, want the live single counted", st.SingleGroups)
	}
	for i, q := range qs {
		wantNodes, wantScores := coldAnswer(q, ref[snap])
		sameAnswer(t, q.Measure+" panel", panel[i], wantNodes, wantScores)
	}

	// Scalar twin: the same factors, live.
	eng2, _, ref2 := communityEngine(t, cfg)
	defer eng2.Close()
	scalar := runBlockedGroup(t, eng2, ref2[snap].Clone(), blockedQueries(-1))

	st2 := eng2.Stats()
	if st2.BlockSolves < 1 {
		t.Fatalf("BlockSolves=%d, want the live block to have formed", st2.BlockSolves)
	}
	if st2.PanelSolves != 0 || st2.PanelPacks != 0 {
		t.Fatalf("live block packed panels: PanelSolves=%d PanelPacks=%d", st2.PanelSolves, st2.PanelPacks)
	}
	if st2.ScalarBlockSolves != st2.BlockSolves {
		t.Fatalf("ScalarBlockSolves=%d != BlockSolves=%d on a live-only load", st2.ScalarBlockSolves, st2.BlockSolves)
	}
	for i, q := range qs {
		if !scalar[i].Live {
			t.Fatalf("twin query %d was not answered live", i)
		}
		sameAnswer(t, q.Measure+" panel-vs-scalar", panel[i], scalar[i].Nodes, scalar[i].Scores)
	}
}

// groupTasks builds a route-compatible unkeyed RWR task group of width
// k directly (no cache fill, no flight table), the harness that drives
// solveGroup without the queue. live marks the group as a live
// source's, which is all the solver is told about the factors.
func groupTasks(k int, live bool) []*task {
	ts := make([]*task, k)
	for i := range ts {
		t := &task{
			q:       Query{Measure: MeasureRWR, Source: i % 64},
			damping: testDamping,
			fl:      newFlight(),
			live:    live,
		}
		t.source[0] = t.q.Source
		t.seeds = t.source[:]
		ts[i] = t
	}
	return ts
}

// TestRouteCountersFollowTheReport drives solveGroup with one group per
// route the solver can choose and checks that exactly the counters of
// that route move — the identities /v1/stats and /v1/metrics promise.
func TestRouteCountersFollowTheReport(t *testing.T) {
	eng, _, cref := communityEngine(t, Config{Workers: 1})
	defer eng.Close()
	_, _, wref := pinnedEngine(t, Config{Workers: 1})
	community, blob := cref[0], wref[0]
	pagerank := func() []*task {
		ts := groupTasks(1, false)
		ts[0].q.Measure, ts[0].seeds = MeasurePageRank, nil
		return ts
	}

	type delta struct {
		single, sparse, fallbacks, skipped, dense    int64
		blocks, blockedRHS, panels, panelRHS, scalar int64
		packs                                        int64
	}
	w := &workerScratch{}
	for _, tc := range []struct {
		name   string
		group  []*task
		solver *lu.Solver
		want   delta
	}{
		{"single seed inside a community: reach", groupTasks(1, false), community,
			delta{single: 1, sparse: 1}},
		{"single seed on a blob: probe abort, dense", groupTasks(1, false), blob,
			delta{single: 1, fallbacks: 1, dense: 1}},
		{"second single seed on the blob: second abort arms the suspension", groupTasks(1, false), blob,
			delta{single: 1, fallbacks: 1, dense: 1}},
		{"third single seed on the blob: dense unprobed, not a fallback", groupTasks(1, false), blob,
			delta{single: 1, skipped: 1, dense: 1}},
		{"pagerank: dense without a probe", pagerank(), community,
			delta{single: 1, dense: 1}},
		{"live block: scalar, never packs", groupTasks(8, true), community,
			delta{blocks: 1, blockedRHS: 8, scalar: 1, dense: 8}},
		{"first wide pinned block: packs, panels", groupTasks(8, false), community,
			delta{blocks: 1, blockedRHS: 8, panels: 1, panelRHS: 8, dense: 8, packs: 1}},
		{"second wide pinned block: panels, no second pack", groupTasks(8, false), community,
			delta{blocks: 1, blockedRHS: 8, panels: 1, panelRHS: 8, dense: 8}},
		{"narrow pinned block: scalar", groupTasks(2, false), community,
			delta{blocks: 1, blockedRHS: 2, scalar: 1, dense: 2}},
		{"wide pinned block on narrow panels: packs, stays scalar", groupTasks(8, false), blob,
			delta{blocks: 1, blockedRHS: 8, scalar: 1, dense: 8, packs: 1}},
	} {
		before := eng.Stats()
		eng.solveGroup(tc.group, tc.solver, w)
		after := eng.Stats()
		got := delta{
			single:     after.SingleGroups - before.SingleGroups,
			sparse:     after.SparseSolves - before.SparseSolves,
			fallbacks:  after.SparseFallbacks - before.SparseFallbacks,
			skipped:    after.SparseProbesSkipped - before.SparseProbesSkipped,
			dense:      after.DenseSolves - before.DenseSolves,
			blocks:     after.BlockSolves - before.BlockSolves,
			blockedRHS: after.BlockedRHS - before.BlockedRHS,
			panels:     after.PanelSolves - before.PanelSolves,
			panelRHS:   after.PanelRHS - before.PanelRHS,
			scalar:     after.ScalarBlockSolves - before.ScalarBlockSolves,
			packs:      after.PanelPacks - before.PanelPacks,
		}
		if got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
		if after.PanelSolves+after.ScalarBlockSolves != after.BlockSolves {
			t.Errorf("%s: panel %d + scalar %d != block %d", tc.name, after.PanelSolves, after.ScalarBlockSolves, after.BlockSolves)
		}
		if after.SparseSolves+after.DenseSolves != after.ColdSolves {
			t.Errorf("%s: sparse %d + dense %d != cold %d", tc.name, after.SparseSolves, after.DenseSolves, after.ColdSolves)
		}
		// Every answer, whatever the route, is the cold answer.
		for _, tk := range tc.group {
			q := tk.q
			_, want := coldAnswer(q, tc.solver)
			for i := range want {
				if tk.fl.ans.scores[i] != want[i] {
					t.Fatalf("%s: %s(%d) differs from the cold solve at %d", tc.name, q.Measure, q.Source, i)
				}
			}
		}
	}
	if st := eng.Stats(); st.AvgReachFrac <= 0 || st.AvgReachFrac > 0.25 {
		t.Errorf("avg reach fraction %v outside (0, 0.25] after one reach solve", st.AvgReachFrac)
	}
}

// TestSolveGroupScratchReuseAcrossWidths is the alloc-count regression
// on the batched worker path: after a warm-up at the widest batch,
// solveGroup's only steady-state allocations are the k cache-owned
// solution vectors — the pooled query and right-hand-side headers, the
// workspace column vectors and the panel gather scratch all survive
// shrinking and regrowing batch widths.
func TestSolveGroupScratchReuseAcrossWidths(t *testing.T) {
	for _, tc := range []struct {
		name string
		live bool
	}{
		{"panels", false},
		{"scalar", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, ref := communityEngine(t, Config{Workers: 1, QueueDepth: 16})
			defer eng.Close()
			solver := ref[0]
			w := &workerScratch{}

			// Jittering batch widths: shrink then regrow, twice past the
			// warm-up width to exercise the header/vector grow paths.
			widths := []int{16, 2, 8, 3, 16, 5, 12, 16, 4, 16}
			groups := make([][]*task, len(widths))
			totalRHS := 0
			for i, k := range widths {
				groups[i] = groupTasks(k, tc.live)
				totalRHS += k
			}
			// Warm-up: builds the panel set (panels run) and sizes every
			// scratch to the maximum width.
			eng.solveGroup(groupTasks(16, tc.live), solver, w)

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := range groups {
				eng.solveGroup(groups[i], solver, w)
			}
			runtime.ReadMemStats(&m1)
			got := int64(m1.Mallocs - m0.Mallocs)

			// One owned []float64 per right-hand side, plus slack for
			// runtime noise — far below one extra per-RHS allocation, so
			// any workspace churn trips it.
			limit := int64(totalRHS) + int64(totalRHS)/2
			if got > limit {
				t.Fatalf("solveGroup allocated %d times over %d RHS (limit %d): block scratch is churning",
					got, totalRHS, limit)
			}
			st := eng.Stats()
			if packed := st.PanelSolves > 0; packed == tc.live {
				t.Fatalf("live=%v group: PanelSolves=%d ScalarBlockSolves=%d", tc.live, st.PanelSolves, st.ScalarBlockSolves)
			}
		})
	}
}
