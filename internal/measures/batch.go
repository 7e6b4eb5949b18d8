package measures

import (
	"repro/internal/lu"
	"repro/internal/sparse"
)

// Query is one solver-backed measure request — RWR, PPR or PageRank,
// optionally cut to its top-k — and, after Engine.Batch, its answer.
type Query struct {
	// Seeds is the restart set: the source node of an RWR, the seed set
	// of a PPR (uniform restart mass over the listed seeds; a repeated
	// seed weighs proportionally).
	Seeds []int
	// Global selects PageRank instead: uniform restart over all nodes,
	// scores normalized to sum to 1. Seeds is ignored.
	Global bool
	// TopK, when positive, asks for only the TopK best nodes (score
	// descending, ties by ascending id, as TopK orders them).
	TopK int

	// The answer. Without TopK, Scores is the full score vector, freshly
	// allocated and owned by the caller, and Nodes is nil; with TopK,
	// Nodes lists the best ids and Scores their scores.
	Nodes  []int
	Scores []float64
}

// Batch answers every query in qs against the engine's factors through
// one lu.Solver.SolveRHS call — the solver picks the substitution route
// for the whole group and the report says which — writing each answer
// into its Query. Every answer is bit-identical to the matching RWR /
// PPR / PageRank call whatever the route. frozen is SolveRHS's: true
// for pinned or materialized factors, false for a live source's.
func (e *Engine) Batch(qs []Query, frozen bool, ws *lu.SolveWorkspace) lu.Report {
	n := e.dim()
	rhs := ws.RHS(len(qs))
	for r := range qs {
		if qs[r].TopK <= 0 {
			// The solution becomes the caller's score vector: never
			// hand out a vector the pooled slot would write again.
			rhs[r].X = nil
		}
		e.restart(&qs[r], n, &rhs[r])
	}
	rep := e.Solver.SolveRHS(rhs, frozen, ws)
	for r := range qs {
		qs[r].answer(&rhs[r], n, rep.Route == lu.RouteReach)
	}
	return rep
}

// solveOne is the allocating single-query path behind RWR, PPR and
// PageRank: the same right-hand side and post-processing as Batch,
// through lu.Solver.Solve.
func (e *Engine) solveOne(q Query) []float64 {
	n := e.dim()
	var r lu.RHS
	e.restart(&q, n, &r)
	b := r.B
	if b == nil {
		b = make([]float64, n)
		for i, s := range r.Idx {
			b[s] += r.Val[i]
		}
	}
	r.X = e.Solver.Solve(b)
	q.answer(&r, n, false)
	return q.Scores
}

// restart writes q's right-hand side (1−d)·q into r, reusing the
// slices r already holds: a support list carrying (1−d)/|seeds| on
// every seed for RWR and PPR (paper Eq. 1; duplicates accumulate in the
// solver's scatter), or the dense vector of (1−d)/n for PageRank, built
// in r.X so the solve runs in place.
func (e *Engine) restart(q *Query, n int, r *lu.RHS) {
	if q.Global {
		b := r.X
		if cap(b) < n {
			b = make([]float64, n)
		}
		b = b[:n]
		w := (1 - e.D) / float64(n)
		for i := range b {
			b[i] = w
		}
		r.B, r.X = b, b
		return
	}
	w := (1 - e.D) / float64(len(q.Seeds))
	r.B = nil
	r.Idx = append(r.Idx[:0], q.Seeds...)
	r.Val = r.Val[:0]
	for range q.Seeds {
		r.Val = append(r.Val, w)
	}
}

// answer turns r's solution into q's answer: PageRank's normalization,
// then either the full vector (scattered from the support when the
// solve took the reach route) or the top-k — straight from the sparse
// support on the reach route, so the full vector is never materialized.
func (q *Query) answer(r *lu.RHS, n int, reach bool) {
	if reach {
		sp := SparseScores{N: n, Idx: r.XIdx, Val: r.XVal}
		if q.TopK > 0 {
			q.Nodes, q.Scores = TopKSparse(sp, q.TopK)
		} else {
			q.Nodes, q.Scores = nil, sp.Dense()
		}
		return
	}
	x := r.X
	if q.Global {
		if s := sparse.Sum(x); s > 0 {
			sparse.Scale(x, 1/s)
		}
	}
	if q.TopK <= 0 {
		q.Nodes, q.Scores = nil, x
		r.B, r.X = nil, nil // x now belongs to the caller
		return
	}
	q.Nodes = TopK(x, q.TopK)
	q.Scores = make([]float64, len(q.Nodes))
	for i, v := range q.Nodes {
		q.Scores[i] = x[v]
	}
}
