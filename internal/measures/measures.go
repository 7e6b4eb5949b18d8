// Package measures computes the graph structural measures the paper
// motivates — PageRank, Personalized PageRank (PPR), Random Walk with
// Restart (RWR), SALSA, and Discounted Hitting Time (DHT) — through
// the linear-system formulation A·x = b with A = I − d·W (paper §1).
// Once A is LU-decomposed, every measure query is a forward/backward
// substitution on the factors, which is the whole point of solving the
// LUDEM problem.
//
// The package also implements the approximation baselines the paper
// compares against in §8: power iteration (PI) and Monte Carlo random
// walks (MC), plus the solve-from-scratch baseline (a fresh sparse
// Gaussian elimination per query) used for the "LU-decomposed solving
// is ~5000× faster than one GE" claim of §1.
package measures

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Engine wraps a snapshot graph with the LU factors of its RWR matrix
// A = I − d·W, ready to answer measure queries.
type Engine struct {
	G      *graph.Graph
	D      float64
	Solver *lu.Solver
}

// NewEngine derives A = I − d·W from g, orders it (Markowitz ordering
// supplied by the caller via solver construction is also possible; this
// convenience uses the natural ordering of lu.FactorizeOrdered when
// ord is nil).
func NewEngine(g *graph.Graph, d float64, ord *sparse.Ordering) (*Engine, error) {
	a := graph.Derive(graph.RWRMatrix(d), g)
	o := sparse.IdentityOrdering(g.N())
	if ord != nil {
		o = *ord
	}
	s, err := lu.FactorizeOrdered(a, o)
	if err != nil {
		return nil, fmt.Errorf("measures: %w", err)
	}
	return &Engine{G: g, D: d, Solver: s}, nil
}

// NewEngineFromSolver wraps factors that were produced elsewhere (for
// example streamed out of a core.Run over an EMS).
func NewEngineFromSolver(g *graph.Graph, d float64, s *lu.Solver) *Engine {
	return &Engine{G: g, D: d, Solver: s}
}

// NewSolverEngine wraps retained factors with no snapshot graph
// attached. The solver-backed measures (RWR, PPR, PageRank) need only
// the system dimension, so a serving layer that pins solvers — not
// graphs — per snapshot can still answer them. Graph-dependent
// measures (DHT, SALSA, …) are package functions taking the graph
// explicitly and are unaffected.
func NewSolverEngine(d float64, s *lu.Solver) *Engine {
	return &Engine{D: d, Solver: s}
}

// dim returns the system dimension, from the graph when one is
// attached and from the factors otherwise.
func (e *Engine) dim() int {
	if e.G != nil {
		return e.G.N()
	}
	return e.Solver.F.Dim()
}

// RWR returns the stationary distribution of a random walk with
// restart from node u (paper Eq. 1): solves A·x = (1−d)·e_u.
func (e *Engine) RWR(u int) []float64 {
	return e.solveOne(Query{Seeds: []int{u}})
}

// PPR returns the Personalized PageRank for a seed set with uniform
// seed mass: solves A·x = (1−d)·q where q is uniform over seeds. A
// repeated seed weighs proportionally; an empty set scores zero
// everywhere.
func (e *Engine) PPR(seeds []int) []float64 {
	return e.solveOne(Query{Seeds: seeds})
}

// PageRank returns the global PageRank vector: PPR with a uniform
// restart over all nodes. Dangling mass is handled by the halting
// convention of graph.RWRMatrix (the score vector is normalized to sum
// to 1 before returning, the usual practical fix).
func (e *Engine) PageRank() []float64 {
	return e.solveOne(Query{Global: true})
}

// DHT returns the d-discounted hitting time from every node to target
// t: h satisfies h(t) = 0 and h(v) = 1 + d·Σ_w P(v,w)·h(w) for v ≠ t
// (paper ref. [14]). It is computed by solving a system on the same
// factors via the rank-1 structure of the target constraint:
// solving (I − d·Wᵀ_{-t}) h = 1_{-t} directly would need a different
// matrix, so DHT assembles its own small system per target.
func DHT(g *graph.Graph, d float64, t int) ([]float64, error) {
	n := g.N()
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	for v := 0; v < n; v++ {
		if v == t {
			continue
		}
		out := g.OutNeighbors(v)
		if len(out) == 0 {
			continue
		}
		w := d / float64(len(out))
		for _, x := range out {
			if x != t {
				// Row v: h(v) − d·Σ P(v,w)·h(w) = 1; transition into t
				// contributes 0 because h(t) = 0.
				c.Add(v, x, -w)
			}
		}
	}
	a := c.ToCSR()
	s, err := lu.FactorizeOrdered(a, sparse.IdentityOrdering(n))
	if err != nil {
		return nil, err
	}
	b := make([]float64, n)
	for i := range b {
		if i != t {
			b[i] = 1
		}
	}
	h := s.Solve(b)
	h[t] = 0
	return h, nil
}

// SALSA returns damped SALSA authority scores: the stationary
// distribution of the two-step authority chain (follow a link
// backwards to a hub, then forwards to an authority), damped with
// restart probability 1−d to keep the chain irreducible. The two-step
// transition matrix M = W_c·W_r is materialized sparsely and the score
// solves (I − d·M)·x = (1−d)/n·1.
func SALSA(g *graph.Graph, d float64) ([]float64, error) {
	n := g.N()
	// W_r: row-normalized adjacency (hub step, backwards from
	// authority to hub is modelled by the transpose structure below).
	// Build column-normalized W (authority step) and row-normalized
	// transpose (hub step) and multiply.
	wc := sparse.NewCOO(n) // W_c(j,i) = 1/outdeg(i) for edge (i,j)
	wr := sparse.NewCOO(n) // W_r(i,j) = 1/indeg(j)  for edge (i,j)
	for i := 0; i < n; i++ {
		out := g.OutNeighbors(i)
		if len(out) == 0 {
			continue
		}
		ow := 1 / float64(len(out))
		for _, j := range out {
			wc.Add(j, i, ow)
			wr.Add(i, j, 1/float64(g.InDegree(j)))
		}
	}
	m := wc.ToCSR().Mul(wr.ToCSR()) // authority-to-authority chain
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	for i := 0; i < n; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			if vals[k] != 0 {
				c.Add(i, j, -d*vals[k])
			}
		}
	}
	a := c.ToCSR()
	s, err := lu.FactorizeOrdered(a, sparse.IdentityOrdering(n))
	if err != nil {
		return nil, err
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = (1 - d) / float64(n)
	}
	x := s.Solve(b)
	if sum := sparse.Sum(x); sum > 0 {
		sparse.Scale(x, 1/sum)
	}
	return x, nil
}

// PowerIterationRWR approximates the RWR vector from u by iterating
// x ← d·W·x + (1−d)·e_u until the 1-norm change drops below tol or
// maxIter is reached. Returns the vector and the iterations used.
func PowerIterationRWR(g *graph.Graph, d float64, u int, tol float64, maxIter int) ([]float64, int) {
	n := g.N()
	w := columnNormalized(g)
	x := sparse.Basis(n, u, 1.0)
	q := sparse.Basis(n, u, 1-d)
	for it := 1; it <= maxIter; it++ {
		nx := w.MulVec(x)
		diff := 0.0
		for i := range nx {
			nx[i] = d*nx[i] + q[i]
			diff += abs(nx[i] - x[i])
		}
		x = nx
		if diff < tol {
			return x, it
		}
	}
	return x, maxIter
}

// MonteCarloRWR approximates the RWR vector from u by simulating walks
// restarting at u with probability 1−d per step; visit frequencies
// estimate the stationary distribution.
func MonteCarloRWR(g *graph.Graph, d float64, u int, walks, maxSteps int, rng *xrand.Rand) []float64 {
	n := g.N()
	visits := make([]float64, n)
	total := 0.0
	for w := 0; w < walks; w++ {
		cur := u
		for s := 0; s < maxSteps; s++ {
			visits[cur]++
			total++
			if rng.Float64() >= d {
				cur = u
				continue
			}
			out := g.OutNeighbors(cur)
			if len(out) == 0 {
				cur = u // halt convention: restart from the seed
				continue
			}
			cur = out[rng.Intn(len(out))]
		}
	}
	if total > 0 {
		sparse.Scale(visits, 1/total)
	}
	return visits
}

// SolveFreshGE answers one query by a from-scratch sparse Gaussian
// elimination (full LU factorization) followed by a solve — the
// "repeatedly applying GE for each input b" strawman of §1. Used only
// by the tblSolve experiment.
func SolveFreshGE(g *graph.Graph, d float64, b []float64) ([]float64, error) {
	a := graph.Derive(graph.RWRMatrix(d), g)
	s, err := lu.FactorizeOrdered(a, sparse.IdentityOrdering(g.N()))
	if err != nil {
		return nil, err
	}
	return s.Solve(b), nil
}

// columnNormalized builds W with W(j,i) = 1/outdeg(i) per edge (i,j).
func columnNormalized(g *graph.Graph) *sparse.CSR {
	c := sparse.NewCOO(g.N())
	for i := 0; i < g.N(); i++ {
		out := g.OutNeighbors(i)
		if len(out) == 0 {
			continue
		}
		w := 1 / float64(len(out))
		for _, j := range out {
			c.Add(j, i, w)
		}
	}
	return c.ToCSR()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TopK returns the indices of the k largest entries of x in descending
// score order; equal scores resolve by ascending node id. The tie rule
// is part of the contract: serving-layer tests compare cached and
// fresh responses for equality, which needs a total, input-independent
// order (the previous selection sort left ties in whatever order its
// swaps had shuffled the index array into). It is a bounded selection
// (topSelector): one comparison per entry that misses the cut and
// O(log k) per entry that makes it, not a sort of all n.
func TopK(x []float64, k int) []int {
	sel := newTopSelector(k, len(x))
	for i, v := range x {
		sel.offer(i, v)
	}
	best := sel.ranked()
	idx := make([]int, len(best))
	for i, e := range best {
		idx[i] = e.id
	}
	return idx
}

// Ranks converts scores into 1-based ranks (highest score → rank 1;
// equal scores rank by ascending node id, matching TopK).
func Ranks(x []float64) []int {
	idx := rankedIndices(x)
	ranks := make([]int, len(x))
	for r, i := range idx {
		ranks[i] = r + 1
	}
	return ranks
}

// rankedIndices sorts all indices by spLess — the full ranking only
// Ranks needs.
func rankedIndices(x []float64) []int {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return spLess(spEntry{idx[a], x[idx[a]]}, spEntry{idx[b], x[idx[b]]})
	})
	return idx
}
