package serve

import (
	"time"

	"repro/internal/lu"
	"repro/internal/measures"
)

// The solve stage: each worker dequeues one task at a time and answers
// it through one measures.Engine.Answer call, that is one
// lu.Solver.SolveRHS on the task's factors. Compatible queued queries
// are not grouped: the only shared work left, identical queries,
// already coalesces on the flight key before admission.

// worker owns one solver workspace (which also pools the dense scratch
// of top-k answers), so a steady-state worker's per-query allocation is
// only what the cache must own, and drains the admission queue.
func (e *Engine) worker() {
	defer e.wg.Done()
	var ws lu.SolveWorkspace
	for {
		select {
		case t := <-e.queue:
			e.serveTask(t, &ws)
		case <-e.closed:
			return
		}
	}
}

// serveTask answers one dequeued task and records its admit stage
// (enqueue → dequeue), its batch stage (dequeue → solve start) and one
// solve-stage observation (solve start → answer published).
func (e *Engine) serveTask(t *task, ws *lu.SolveWorkspace) {
	dequeued := time.Now()
	wait := dequeued.Sub(t.enqueuedAt)
	e.stages[stageAdmit].Observe(wait)
	t.tr.Record("admit", t.enqueuedAt, wait)
	s0 := time.Now()
	e.stages[stageBatch].Observe(s0.Sub(dequeued))
	t.tr.Record("batch", dequeued, s0.Sub(dequeued))
	// The solve span stays open across the dispatch below; the trace
	// finish inside e.finish closes it, so its duration is solve start
	// → answer publication.
	t.solveSpan = t.tr.StartSpanAt("solve", s0)
	switch {
	case t.live:
		e.serveLive(t, ws)
	case t.hist && t.solver == nil:
		e.serveHist(t, ws)
	default:
		e.solveTask(t, t.solver, ws)
	}
	e.stages[stageSolve].Observe(time.Since(s0))
}

// serveLive solves a live task inside one view of its source. The
// published version — and with it the task's cache-fill key — is
// re-read under the same lock the factors are solved under, so a
// publish racing the queue can never leave a stale answer filed under
// a fresh version's key: answer and key always come from the same
// locked read.
func (e *Engine) serveLive(t *task, ws *lu.SolveWorkspace) {
	viewed := t.src.View(func(version uint64, s *lu.Solver) {
		t.version, t.snap = version, int(version)
		t.prefix = livePrefix(version)
		e.solveTask(t, s, ws)
	})
	if !viewed {
		// A source that breaks "once published, always published":
		// fail the flight rather than leave its waiters hanging.
		e.finish(t, answer{}, ErrNoSnapshots)
	}
}

// solveTask answers a task against solver through one Answer call.
func (e *Engine) solveTask(t *task, solver *lu.Solver, ws *lu.SolveWorkspace) {
	q := measures.Query{Seeds: t.seeds, Global: t.q.Measure == MeasurePageRank}
	if t.q.Measure == MeasureTopK {
		q.TopK = t.q.K
	}
	measures.NewSolverEngine(t.damping, solver).Answer(&q, ws)
	e.finish(t, answer{nodes: q.Nodes, scores: q.Scores}, nil)
}
