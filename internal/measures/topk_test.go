package measures

import (
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// The bounded selection behind TopK replaced a full sort of every
// index. That sort is kept here, as it was, as the reference the
// selection must reproduce node for node.

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

// tieHeavyScore draws from a small pool so ties, NaN and both zeros are
// everywhere.
func tieHeavyScore(rng *xrand.Rand) float64 {
	pool := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1, 0.5, -0.5, -1, 1e-300, -1e-300, math.Inf(1), math.Inf(-1)}
	if rng.Intn(4) == 0 {
		return rng.Float64() - 0.5
	}
	return pool[rng.Intn(len(pool))]
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
