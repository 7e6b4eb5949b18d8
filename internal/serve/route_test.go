package serve

import (
	"runtime"
	"testing"

	"repro/internal/lu"
)

// Tests of how the worker books the route lu.Solver.SolveRHS returns:
// every gathered group lands in exactly one of the dense / block
// counters, and the per-worker scratch reuses capacity as batch widths
// jitter. Two factor shapes: the community engine's block-diagonal
// factors and the Wiki-like engine's single blob.

// groupTasks builds a route-compatible unkeyed RWR task group of width
// k directly (no cache fill, no flight table), the harness that drives
// solveGroup without the queue.
func groupTasks(k int) []*task {
	ts := make([]*task, k)
	for i := range ts {
		t := &task{
			q:       Query{Measure: MeasureRWR, Source: i % 64},
			damping: testDamping,
			fl:      newFlight(),
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
		ts := groupTasks(1)
		ts[0].q.Measure, ts[0].seeds = MeasurePageRank, nil
		return ts
	}

	type delta struct {
		single, dense, blocks, blockedRHS int64
	}
	w := &workerScratch{}
	for _, tc := range []struct {
		name   string
		group  []*task
		solver *lu.Solver
		want   delta
	}{
		{"single seed inside a community: dense", groupTasks(1), community,
			delta{single: 1, dense: 1}},
		{"single seed on a blob: dense", groupTasks(1), blob,
			delta{single: 1, dense: 1}},
		{"pagerank: dense", pagerank(), community,
			delta{single: 1, dense: 1}},
		{"wide block on the communities", groupTasks(8), community,
			delta{blocks: 1, blockedRHS: 8, dense: 8}},
		{"narrow block on the communities", groupTasks(2), community,
			delta{blocks: 1, blockedRHS: 2, dense: 2}},
		{"wide block on the blob", groupTasks(8), blob,
			delta{blocks: 1, blockedRHS: 8, dense: 8}},
	} {
		before := eng.Stats()
		eng.solveGroup(tc.group, tc.solver, w)
		after := eng.Stats()
		got := delta{
			single:     after.SingleGroups - before.SingleGroups,
			dense:      after.DenseSolves - before.DenseSolves,
			blocks:     after.BlockSolves - before.BlockSolves,
			blockedRHS: after.BlockedRHS - before.BlockedRHS,
		}
		if got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
		if after.DenseSolves != after.ColdSolves {
			t.Errorf("%s: dense %d != cold %d", tc.name, after.DenseSolves, after.ColdSolves)
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
}

// TestSolveGroupScratchReuseAcrossWidths is the alloc-count regression
// on the batched worker path: after a warm-up at the widest batch,
// solveGroup's only steady-state allocations are the k cache-owned
// solution vectors — the pooled query and right-hand-side headers and
// the workspace column vectors all survive shrinking and regrowing
// batch widths. Pinned ("panels") and live ("scalar") groups take the
// same block route; the case names predate that and stay stable.
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
			group := func(k int) []*task {
				ts := groupTasks(k)
				for _, tk := range ts {
					tk.live = tc.live
				}
				return ts
			}

			// Jittering batch widths: shrink then regrow, twice past the
			// warm-up width to exercise the header/vector grow paths.
			widths := []int{16, 2, 8, 3, 16, 5, 12, 16, 4, 16}
			groups := make([][]*task, len(widths))
			totalRHS := 0
			for i, k := range widths {
				groups[i] = group(k)
				totalRHS += k
			}
			// Warm-up: sizes every scratch to the maximum width.
			eng.solveGroup(group(16), solver, w)

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
			if st := eng.Stats(); st.BlockSolves != int64(1+len(widths)) {
				t.Fatalf("BlockSolves=%d, want %d", st.BlockSolves, 1+len(widths))
			}
		})
	}
}
