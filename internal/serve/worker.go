package serve

import (
	"fmt"
	"time"

	"repro/internal/lu"
	"repro/internal/measures"
)

// The batching stage: each worker drains the admission queue, groups
// compatible queued queries — same factors, hence one solver — and
// answers a group of k ≥ 1 through one measures.Engine.Batch call. The
// substitution route (reach-restricted, dense, scalar block, packed
// panels) is lu.Solver.SolveRHS's decision, made from what it observes
// about the group and the factors; this layer only states whether the
// factors are frozen and books the route the report names. Every route
// produces bit-identical answers, so batching and routing are purely
// execution-schedule decisions.

// batchMax bounds how many queued tasks one worker drains per gather:
// it keeps a deep backlog shared between workers instead of letting the
// first one to wake take it all. It bounds a queue drain; it does not
// pick a solve route.
const batchMax = 8

// workerScratch is the per-worker reusable state: the solver workspace
// (which also pools the dense scratch of top-k answers) and the query
// header of the current group, so a steady-state worker's per-query
// allocation is only what the cache must own.
type workerScratch struct {
	ws lu.SolveWorkspace
	qs []measures.Query
}

// worker owns one scratch set and drains the admission queue in
// batches.
func (e *Engine) worker() {
	defer e.wg.Done()
	var w workerScratch
	for {
		select {
		case t := <-e.queue:
			e.dequeued(t)
			batch := e.gather(t)
			for len(batch) > 0 {
				group, rest := splitGroup(batch)
				e.serveGroup(group, &w)
				batch = rest
			}
		case <-e.closed:
			return
		}
	}
}

// dequeued stamps a task's exit from the admission queue and records
// the admit-stage wait.
func (e *Engine) dequeued(t *task) {
	t.dequeuedAt = time.Now()
	d := t.dequeuedAt.Sub(t.enqueuedAt)
	e.stages[stageAdmit].Observe(d)
	t.tr.Record("admit", t.enqueuedAt, d)
}

// gather drains up to batchMax−1 more queued tasks without blocking:
// whatever has piled up behind first is this worker's batch. Under
// light load the queue is empty and every query solves alone at
// minimum latency; under heavy load batches form by themselves — the
// deeper the backlog, the wider the blocks, the higher the throughput.
func (e *Engine) gather(first *task) []*task {
	batch := []*task{first}
	for len(batch) < batchMax {
		select {
		case t := <-e.queue:
			e.dequeued(t)
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// splitGroup peels the head task's route group off the batch,
// preserving arrival order in both halves.
func splitGroup(batch []*task) (group, rest []*task) {
	head := batch[0]
	group = batch[:1]
	for _, t := range batch[1:] {
		if sameRoute(head, t) {
			group = append(group, t)
		} else {
			rest = append(rest, t)
		}
	}
	return group, rest
}

// sameRoute reports whether two tasks are answerable by the same
// factors and cacheable in the same namespace — the condition for
// solving them in one block. Pinned tasks must share the solver and
// the generation-stamped prefix; live tasks must share the source and
// attach generation (the version is re-read for the whole group at
// solve time, so resolve-time versions need not match).
func sameRoute(a, b *task) bool {
	if a.q.Measure == MeasureKatz || b.q.Measure == MeasureKatz {
		// Graph-backed tasks never join blocked solves (there is no
		// shared factor traversal to amortize); identical katz queries
		// already coalesce on the flight key.
		return false
	}
	if a.live != b.live {
		return false
	}
	if a.live {
		return a.src == b.src && a.liveGen == b.liveGen
	}
	return a.solver == b.solver && a.prefix == b.prefix && a.snap == b.snap
}

// serveGroup answers one route group, recording the batch stage (time
// from dequeue to the group's solve starting) for every member and one
// solve-stage observation for the group's dispatch.
func (e *Engine) serveGroup(group []*task, w *workerScratch) {
	s0 := time.Now()
	for _, t := range group {
		e.stages[stageBatch].Observe(s0.Sub(t.dequeuedAt))
		t.tr.Record("batch", t.dequeuedAt, s0.Sub(t.dequeuedAt))
		// The solve span stays open across the dispatch below; the
		// trace finish inside e.finish closes it, so its duration is
		// solve start → that task's answer publication.
		t.solveSpan = t.tr.StartSpanAt("solve", s0)
	}
	switch {
	case group[0].live:
		e.serveLiveGroup(group, w)
	case group[0].hist && group[0].solver == nil:
		e.serveHistGroup(group, w)
	default:
		e.solveGroup(group, group[0].solver, w)
	}
	e.stages[stageSolve].Observe(time.Since(s0))
}

// serveLiveGroup solves a live group inside one view of the source.
// The published version — and with it each task's cache-fill key — is
// re-read under the same lock the factors are solved under, so a
// publish racing the queue can never leave a stale answer filed under
// a fresh version's key: answer and key always come from the same
// locked read.
func (e *Engine) serveLiveGroup(group []*task, w *workerScratch) {
	src, gen := group[0].src, group[0].liveGen
	viewed := src.View(func(version uint64, s *lu.Solver) {
		prefix := livePrefix(gen, version)
		for _, t := range group {
			t.version = version
			t.snap = int(version)
			t.prefix = prefix
		}
		e.solveGroup(group, s, w)
	})
	if !viewed {
		// The source was detached (or replaced by an empty one) after
		// these queries were routed; fall back to the pinned store,
		// exactly as resolve would have.
		for _, t := range group {
			e.fallbackPinned(t, w)
		}
	}
}

// fallbackPinned rebinds a live-routed task to the latest pinned
// snapshot after its source vanished mid-flight. The flight stays
// registered under its live key (finish deregisters it); the answer is
// cached under the pinned prefix it was computed for.
func (e *Engine) fallbackPinned(t *task, w *workerScratch) {
	e.mu.RLock()
	snap := e.latest
	entry, ok := e.snaps[snap]
	e.mu.RUnlock()
	if snap < 0 {
		e.finish(t, answer{}, ErrNoSnapshots)
		return
	}
	if !ok {
		e.finish(t, answer{}, fmt.Errorf("%w: %d", ErrUnknownSnapshot, snap))
		return
	}
	t.live, t.src = false, nil
	t.snap, t.version = snap, 0
	t.solver = entry.s
	t.prefix = pinnedPrefix(snap, entry.gen)
	// Revalidate: the payload was canonicalized against the live
	// dimension, which need not match the pinned one.
	if err := t.canonicalize(entry.s.F.Dim()); err != nil {
		e.finish(t, answer{}, err)
		return
	}
	e.solveGroup([]*task{t}, entry.s, w)
}

// solveGroup answers a route group of any size against its resolved
// solver through one Batch call and books the route it took: exactly
// one of sparse / dense / block per group, blocks split once more into
// panel and scalar, and a lazily packed panel set accounted to the one
// group whose call built it.
func (e *Engine) solveGroup(group []*task, solver *lu.Solver, w *workerScratch) {
	if len(group) == 1 {
		e.singleGroups.Add(1)
		if group[0].q.Measure == MeasureKatz {
			e.serveKatz(group[0])
			return
		}
	}
	w.qs = w.qs[:0]
	for _, t := range group {
		mq := measures.Query{Seeds: t.seeds, Global: t.q.Measure == MeasurePageRank}
		if t.q.Measure == MeasureTopK {
			mq.TopK = t.q.K
		}
		w.qs = append(w.qs, mq)
	}
	// Live factors are Bennett-updated in place, so they are never
	// frozen; pinned and materialized solvers are.
	me := measures.NewSolverEngine(group[0].damping, solver)
	rep := me.Batch(w.qs, !group[0].live, &w.ws)

	k := int64(len(group))
	if ps := rep.Packed; ps != nil {
		e.panelPacks.Add(1)
		e.panelCols.Add(int64(ps.ColsCovered()))
		e.panelPackNS.Add(int64(ps.PackTime()))
	}
	switch rep.Route {
	case lu.RouteReach:
		e.sparseSolves.Add(1)
		e.reachRows.Add(int64(rep.ReachRows))
		e.reachDen.Add(int64(solver.F.Dim()))
		group[0].solveSpan.SetString("path", "sparse")
	case lu.RouteDense:
		switch {
		case rep.ProbeAborted:
			e.sparseFallbacks.Add(1)
		case rep.ProbeSkipped:
			e.sparseProbesSkipped.Add(1)
		}
		e.denseSolves.Add(1)
		group[0].solveSpan.SetString("path", "dense")
	default:
		panels := rep.Route == lu.RoutePanel
		if panels {
			e.panelSolves.Add(1)
			e.panelRHS.Add(k)
		} else {
			e.scalarBlocks.Add(1)
		}
		e.blockSolves.Add(1)
		e.blockedRHS.Add(k)
		e.denseSolves.Add(k)
		for _, t := range group {
			t.solveSpan.SetString("path", "block")
			t.solveSpan.SetInt("block_width", k)
			t.solveSpan.SetBool("panels", panels)
		}
	}
	for r, t := range group {
		e.finish(t, answer{nodes: w.qs[r].Nodes, scores: w.qs[r].Scores}, nil)
		w.qs[r] = measures.Query{} // the answer is the cache's now
	}
}
