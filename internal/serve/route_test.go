package serve

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/lu"
)

// Tests of how the worker serves one dequeued task: a solver-backed
// query is one dense solve, booked as one, and a warm worker allocates per
// task only the vector the cache keeps. Two factor shapes: the
// community engine's block-diagonal factors and the Wiki-like engine's
// single blob.

// rwrTask builds an RWR task from source directly, outside the flight
// table and under the empty cache key, the harness that drives the
// worker's serving path without the queue.
func rwrTask(source int) *task {
	t := &task{
		q:          Query{Measure: MeasureRWR, Source: source},
		damping:    testDamping,
		fl:         newFlight(),
		enqueuedAt: time.Now(),
	}
	t.source[0] = source
	t.seeds = t.source[:]
	return t
}

// TestRouteCountersFollowTheReport serves one task of each kind through
// the worker's dispatch and checks that exactly its counter moves — the
// identity /v1/stats and /v1/metrics promise: every cold solve is a
// dense one.
func TestRouteCountersFollowTheReport(t *testing.T) {
	eng, _, cref := communityEngine(t, Config{Workers: 1})
	defer eng.Close()
	_, _, wref := pinnedEngine(t, Config{Workers: 1})
	community, blob := cref[0], wref[0]
	pinned := func(tk *task, s *lu.Solver) *task {
		tk.solver = s
		return tk
	}
	pagerank := rwrTask(0)
	pagerank.q.Measure, pagerank.seeds = MeasurePageRank, nil

	var ws lu.SolveWorkspace
	for _, tc := range []struct {
		name string
		task *task
	}{
		{"single seed inside a community", pinned(rwrTask(3), community)},
		{"single seed on a blob", pinned(rwrTask(3), blob)},
		{"pagerank", pinned(pagerank, community)},
	} {
		before := eng.Stats()
		eng.serveTask(tc.task, &ws)
		after := eng.Stats()
		if got := after.ColdSolves - before.ColdSolves; got != 1 {
			t.Errorf("%s: %d cold solves, want 1", tc.name, got)
		}
		// Every answer is the cold answer.
		_, want := coldAnswer(tc.task.q, tc.task.solver)
		for i := range want {
			if tc.task.fl.ans.scores[i] != want[i] {
				t.Fatalf("%s: %s(%d) differs from the cold solve at %d", tc.name, tc.task.q.Measure, tc.task.q.Source, i)
			}
		}
	}
}

// TestSolveTaskSteadyStateAllocs is the alloc regression of the
// worker's serving path: once warm, a task allocates the one score
// vector the cache keeps and nothing that grows with the system — the
// workspace's permuted vector and pooled right-hand side are reused. On
// the pinned path the count is one allocation per task. The live path
// also keys and files each answer (prefix, cache entry, the view's
// closure), a few small allocations, so its bound is in bytes: any
// second vector per task (8n bytes) trips it.
func TestSolveTaskSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		live bool
	}{
		{"pinned", false},
		{"live", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, ref := communityEngine(t, Config{Workers: 1, QueueDepth: 16})
			defer eng.Close()
			solver := ref[0]
			src := newGatedLive(solver, 0)
			n := solver.F.Dim()
			var ws lu.SolveWorkspace
			serve := func(tk *task) {
				if tc.live {
					tk.live, tk.src = true, src
					eng.serveLive(tk, &ws)
				} else {
					eng.solveTask(tk, solver, &ws)
				}
			}

			const tasks = 32
			ts := make([]*task, tasks)
			for i := range ts {
				ts[i] = rwrTask(i % 64)
			}
			serve(rwrTask(63)) // warm-up: sizes the workspace

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, tk := range ts {
				serve(tk)
			}
			runtime.ReadMemStats(&m1)
			allocs, bytes := int64(m1.Mallocs-m0.Mallocs), int64(m1.TotalAlloc-m0.TotalAlloc)

			// The kept vector per task, plus half a vector of slack for
			// runtime noise and the live path's keying.
			if limit := int64(tasks) * 8 * int64(n) * 3 / 2; bytes > limit {
				t.Fatalf("%d tasks allocated %d bytes (limit %d, one kept vector is %d): the workspace is churning",
					tasks, bytes, limit, 8*n)
			}
			if limit := int64(tasks) * 3 / 2; !tc.live && allocs > limit {
				t.Fatalf("%d tasks allocated %d times (limit %d): the workspace is churning", tasks, allocs, limit)
			}
			if st := eng.Stats(); st.ColdSolves != tasks+1 {
				t.Fatalf("%d cold solves, want %d", st.ColdSolves, tasks+1)
			}
		})
	}
}
