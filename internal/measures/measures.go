// Package measures computes the proximity measures the paper's serving
// story rests on — PageRank, Personalized PageRank (PPR), Random Walk
// with Restart (RWR) and top-k RWR — through the linear-system
// formulation A·x = b with A = I − d·W (paper §1). Once A is
// LU-decomposed, every measure query is a forward/backward substitution
// on the factors, which is the whole point of solving the LUDEM
// problem.
//
// The package also implements the approximation baselines the paper
// compares against in §8: power iteration (PI) and Monte Carlo random
// walks (MC), plus the solve-from-scratch baseline (a fresh sparse
// Gaussian elimination per query) used for the "LU-decomposed solving
// is ~5000× faster than one GE" claim of §1.
package measures

import (
	"fmt"
	"math"
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
// attached. The measures (RWR, PPR, PageRank) need only the system
// dimension, so a serving layer that pins solvers — not graphs — per
// snapshot can still answer them.
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

// spEntry is one (node, score) pair during ranking.
type spEntry struct {
	id  int
	val float64
}

// spLess is the one ranking order of the package — TopK and Ranks both
// sort by it: score descending, NaN after every real score (a bare `>`
// is not a strict weak order in their presence), ties by ascending id.
// It is total over distinct ids, which is what makes a bounded
// selection agree with a full sort.
func spLess(a, b spEntry) bool {
	an, bn := math.IsNaN(a.val), math.IsNaN(b.val)
	if an != bn {
		return bn
	}
	if !an && a.val != b.val {
		return a.val > b.val
	}
	return a.id < b.id
}

// Less makes spEntry a sparse.MinHeap element ordered worst first: a is
// "smaller" when it ranks after b under spLess, so the root of a heap
// of kept entries is the one the next better candidate displaces.
func (a spEntry) Less(b spEntry) bool { return spLess(b, a) }

// topSelector is the bounded selection behind TopK: it keeps the k
// entries ranking first under spLess out of however many are offered,
// in O(log k) per offer that makes the cut and one comparison per offer
// that does not. With k at or above the number of offers it is a
// heapsort, so there is no cut-over to a full sort.
type topSelector struct {
	k int
	h sparse.MinHeap[spEntry]
}

// newTopSelector returns a selector of the k best, k clamped to [0, n]
// for n candidates.
func newTopSelector(k, n int) topSelector {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return topSelector{k: k, h: make(sparse.MinHeap[spEntry], 0, k)}
}

func (s *topSelector) offer(id int, val float64) {
	e := spEntry{id: id, val: val}
	switch {
	case len(s.h) < s.k:
		s.h.Push(e)
	case s.k > 0 && s.h[0].Less(e):
		s.h.ReplaceMin(e)
	}
}

// ranked empties the selector and returns what it kept, best first.
func (s *topSelector) ranked() []spEntry {
	out := s.h
	for n := len(out) - 1; n >= 0; n-- {
		out[n] = s.h.Pop() // the worst left; Pop has just vacated slot n
	}
	return out
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
