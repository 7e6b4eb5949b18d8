package measures

import (
	"math"

	"repro/internal/sparse"
)

// This file is the measure-level face of the reach-restricted solve
// route: single-seed RWR and small-seed-set PPR right-hand sides reach
// only a fraction of the rows of clustered, low-fill factors, so the
// solver answers them on their support alone — and top-k can be fed
// straight from that support without ever materializing the full score
// vector.

// SparseScores is a measure result restricted to its support: Val[k]
// is the score of node Idx[k] and every node not listed scores exactly
// zero. N is the full dimension. The slices alias solve-workspace
// storage and stay valid until the workspace's next solve.
type SparseScores struct {
	N   int
	Idx []int
	Val []float64
}

// Dense scatters the sparse scores into a fresh full vector. The result
// is bit-identical to the dense route's vector: on-support values are
// bit-equal by the lu.RouteReach contract and every off-support
// position is zero.
func (sp SparseScores) Dense() []float64 {
	dst := make([]float64, sp.N)
	for k, u := range sp.Idx {
		dst[u] = sp.Val[k]
	}
	return dst
}

// spEntry is one (node, score) pair during sparse ranking.
type spEntry struct {
	id  int
	val float64
}

// spLess is the one ranking order of the package — TopK, TopKSparse and
// Ranks all sort by it: score descending, NaN after every real score
// (a bare `>` is not a strict weak order in their presence), ties by
// ascending id. It is total over distinct ids, which is what makes the
// sparse rankings bit-compatible with the dense ones and a bounded
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

// topSelector is the one bounded selection behind TopK and TopKSparse:
// it keeps the k entries ranking first under spLess out of however many
// are offered, in O(log k) per offer that makes the cut and one
// comparison per offer that does not. With k at or above the number of
// offers it is a heapsort, so there is no cut-over to a full sort.
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

// TopKSparse returns the top-k node ids and their scores from a sparse
// measure result — identical, node for node and bit for bit, to
// TopK on the equivalent dense vector followed by a score gather, but
// in O(r log k + k) for support size r instead of O(n log k): the
// candidates are the support's entries plus the k lowest off-support
// ids (implicit score 0, which rank among themselves by id, so no later
// one can make the cut).
func TopKSparse(sp SparseScores, k int) ([]int, []float64) {
	sel := newTopSelector(k, sp.N)
	k = sel.k
	for i, u := range sp.Idx {
		sel.offer(u, sp.Val[i])
	}
	// The k lowest off-support ids all lie below k + |support|.
	limit := k + len(sp.Idx)
	if limit > sp.N {
		limit = sp.N
	}
	onSupport := make([]bool, limit)
	for _, u := range sp.Idx {
		if u < limit {
			onSupport[u] = true
		}
	}
	for id, zeros := 0, 0; id < limit && zeros < k; id++ {
		if !onSupport[id] {
			sel.offer(id, 0)
			zeros++
		}
	}
	best := sel.ranked()
	nodes := make([]int, len(best))
	scores := make([]float64, len(best))
	for i, e := range best {
		nodes[i], scores[i] = e.id, e.val
	}
	return nodes, scores
}
