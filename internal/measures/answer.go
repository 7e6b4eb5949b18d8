package measures

import (
	"repro/internal/lu"
	"repro/internal/sparse"
)

// Query is one solver-backed measure request — RWR, PPR or PageRank,
// optionally cut to its top-k — and, after Engine.Answer, its answer.
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

// Answer answers q against the engine's factors through one
// lu.Solver.SolveRHS call on ws, writing the answer into q. Without
// TopK the score vector is freshly allocated and the caller's; with
// TopK the dense solution stays in ws's pooled right-hand side for the
// next call. The answer is bit-identical to the matching RWR / PPR /
// PageRank call: those run through Answer too.
func (e *Engine) Answer(q *Query, ws *lu.SolveWorkspace) {
	r := ws.RHS()
	if q.TopK <= 0 {
		// The solution becomes the caller's score vector: never hand
		// out a vector the pooled slot would write again.
		r.X = nil
	}
	e.restart(q, e.dim(), r)
	e.Solver.SolveRHS(r, ws)
	q.answer(r)
}

// solveOne is the allocating single-query path behind RWR, PPR and
// PageRank: Answer on a fresh workspace.
func (e *Engine) solveOne(q Query) []float64 {
	var ws lu.SolveWorkspace
	e.Answer(&q, &ws)
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
// then either the full vector or its top-k.
func (q *Query) answer(r *lu.RHS) {
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
