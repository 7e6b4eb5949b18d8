package measures

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// The bounded selection behind TopK and TopKSparse replaced a full sort
// of every index (dense) and of the whole support merged with the
// stream of implicit zeros (sparse). Those two are kept here, as they
// were, as the reference the selection must reproduce node for node and
// bit for bit.

func referenceTopK(x []float64, k int) []int {
	idx := rankedIndices(x)
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}

func referenceTopKSparse(sp SparseScores, k int) ([]int, []float64) {
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
	ents := make([]spEntry, len(sp.Idx))
	for i, u := range sp.Idx {
		ents[i] = spEntry{id: u, val: sp.Val[i]}
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
	for len(nodes) < k {
		g := nextGap()
		if ei < len(ents) && (g >= sp.N || spLess(ents[ei], spEntry{id: g, val: 0})) {
			nodes, scores = append(nodes, ents[ei].id), append(scores, ents[ei].val)
			ei++
		} else {
			nodes, scores = append(nodes, g), append(scores, 0)
			gap++
		}
	}
	return nodes, scores
}

// tieHeavyScore draws from a small pool so ties, NaN and both zeros are
// everywhere.
func tieHeavyScore(rng *xrand.Rand) float64 {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1, 0.5, -0.5, -1, 1e-300, -1e-300, math.Inf(1), math.Inf(-1)}
	if rng.Intn(4) == 0 {
		return rng.Float64() - 0.5
	}
	return pool[rng.Intn(len(pool))]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func edgeKs(n int) []int {
	return []int{-1, 0, 1, 2, n / 2, n - 1, n, n + 1, n + 7}
}

func TestTopKSelectionMatchesFullSort(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = tieHeavyScore(rng)
		}
		for _, k := range edgeKs(n) {
			if got, want := TopK(x, k), referenceTopK(x, k); !slices.Equal(got, want) {
				t.Fatalf("TopK(%v, %d) = %v, full sort gives %v", x, k, got, want)
			}
		}
	}
}

func TestTopKSparseSelectionMatchesFullSort(t *testing.T) {
	rng := xrand.New(32)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		// A random support in random order: anything from empty (every
		// node an implicit zero) to all of n.
		perm := rng.Perm(n)
		sp := SparseScores{N: n, Idx: perm[:rng.Intn(n+1)]}
		sp.Val = make([]float64, len(sp.Idx))
		for i := range sp.Val {
			sp.Val[i] = tieHeavyScore(rng)
		}
		dense := sp.Dense()
		for _, k := range edgeKs(n) {
			nodes, scores := TopKSparse(sp, k)
			wantNodes, wantScores := referenceTopKSparse(sp, k)
			if !slices.Equal(nodes, wantNodes) || !sameBits(scores, wantScores) {
				t.Fatalf("TopKSparse(%+v, %d) = %v %v, full sort gives %v %v", sp, k, nodes, scores, wantNodes, wantScores)
			}
			// And the dense twin agrees, scores gathered from the vector.
			if dn := TopK(dense, k); !slices.Equal(nodes, dn) {
				t.Fatalf("TopKSparse(%+v, %d) picks %v, TopK on the dense vector %v", sp, k, nodes, dn)
			}
			for i, v := range nodes {
				if math.Float64bits(scores[i]) != math.Float64bits(dense[v]) {
					t.Fatalf("TopKSparse(%+v, %d): score of node %d is %v, dense vector holds %v", sp, k, v, scores[i], dense[v])
				}
			}
		}
	}
}
