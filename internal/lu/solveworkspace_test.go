package lu_test

import (
	"testing"

	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/xrand"
)

// TestSolveWorkspaceShrinkGrowReuse is the alloc-regression contract:
// a workspace warmed at width k must solve at any width <= k —
// including shrink-then-regrow sequences — without allocating, and a
// lone support list must be allocation-free once warm.
func TestSolveWorkspaceShrinkGrowReuse(t *testing.T) {
	ems := testEMS(t)
	ord := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord)
	if err != nil {
		t.Fatal(err)
	}
	n := ems.N()
	rng := xrand.New(29)
	var ws lu.SolveWorkspace
	dsts := make([][]float64, 16)
	for r := range dsts {
		dsts[r] = make([]float64, n)
	}
	block := func(k int) []lu.RHS {
		rhs := denseBlock(blockRHS(rng, k, n))
		for r := range rhs {
			rhs[r].X = dsts[r]
		}
		return rhs
	}

	// Warm at 16, shrink to 2, then measure regrowth to 16: the
	// workspace must serve hidden capacity, not reallocate it.
	for _, k := range []int{16, 2} {
		s.ForceBlock(block(k), &ws)
	}
	rhs := block(16)
	one := []lu.RHS{{Idx: []int{3}, Val: []float64{0.15}, X: make([]float64, n)}}
	s.SolveRHS(one, &ws)
	for name, solve := range map[string]func(){
		"block":   func() { s.ForceBlock(rhs, &ws) },
		"support": func() { s.SolveRHS(one, &ws) },
		"entry":   func() { s.SolveRHS(rhs, &ws) },
	} {
		if allocs := testing.AllocsPerRun(20, solve); allocs > 0 {
			t.Errorf("%s after shrink/grow: %v allocs per solve, want 0", name, allocs)
		}
	}
}
