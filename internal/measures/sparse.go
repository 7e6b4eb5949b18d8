package measures

import (
	"math"
	"sort"
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

// spLess is rankedIndices' comparator on explicit pairs: score
// descending, NaN after every real score, ties by ascending id. Using
// the identical strict weak order is what makes the sparse rankings
// bit-compatible with the dense ones.
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

// mergeRanked enumerates the nodes of sp in exactly the order
// rankedIndices produces on the equivalent dense vector, calling emit
// for each until emit returns false or all n nodes are emitted. It
// merges the sorted explicit entries with the ascending stream of
// off-support nodes (implicit score 0).
func mergeRanked(sp SparseScores, emit func(id int, val float64) bool) {
	ents := make([]spEntry, len(sp.Idx))
	for k, u := range sp.Idx {
		ents[k] = spEntry{id: u, val: sp.Val[k]}
	}
	sort.Slice(ents, func(i, j int) bool { return spLess(ents[i], ents[j]) })
	onSupport := append([]int(nil), sp.Idx...)
	sort.Ints(onSupport)

	gap, gi := 0, 0 // next off-support candidate; pointer into onSupport
	nextGap := func() int {
		for gi < len(onSupport) && gap == onSupport[gi] {
			gap++
			gi++
		}
		return gap
	}
	ei := 0
	for emitted := 0; emitted < sp.N; emitted++ {
		g := nextGap()
		useEntry := ei < len(ents) && (g >= sp.N || spLess(ents[ei], spEntry{id: g, val: 0}))
		var id int
		var val float64
		if useEntry {
			id, val = ents[ei].id, ents[ei].val
			ei++
		} else {
			id, val = g, 0
			gap++
		}
		if !emit(id, val) {
			return
		}
	}
}

// TopKSparse returns the top-k node ids and their scores from a sparse
// measure result — identical, node for node and bit for bit, to
// TopK on the equivalent dense vector followed by a score gather, but
// in O(r log r + k) for support size r instead of O(n log n).
func TopKSparse(sp SparseScores, k int) ([]int, []float64) {
	if k > sp.N {
		k = sp.N
	}
	if k < 0 {
		k = 0
	}
	nodes := make([]int, 0, k)
	scores := make([]float64, 0, k)
	if k == 0 {
		return nodes, scores
	}
	mergeRanked(sp, func(id int, val float64) bool {
		nodes = append(nodes, id)
		scores = append(scores, val)
		return len(nodes) < k
	})
	return nodes, scores
}
