package lu_test

import (
	"testing"

	"repro/internal/lu"
	"repro/internal/order"
)

// TestSolveWorkspaceShrinkGrowReuse is the alloc-regression contract:
// a workspace warmed on the widest system must solve on a narrower one
// and then on the widest again — the hop a worker makes between
// snapshots — without allocating, for a support list and a dense
// vector alike, once X has capacity.
func TestSolveWorkspaceShrinkGrowReuse(t *testing.T) {
	ems := testEMS(t)
	narrow, err := lu.FactorizeOrdered(ems.Matrices[0], order.Markowitz(ems.Matrices[0].Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	wide := communitySolver(t, 8)
	if narrow.F.Dim() >= wide.F.Dim() {
		t.Fatalf("dimensions %d and %d: the test needs the second wider", narrow.F.Dim(), wide.F.Dim())
	}
	var ws lu.SolveWorkspace
	support := func(s *lu.Solver) *lu.RHS {
		return &lu.RHS{Idx: []int{3, 3}, Val: []float64{0.1, 0.05}, X: make([]float64, s.F.Dim())}
	}
	dense := func(s *lu.Solver) *lu.RHS {
		b := make([]float64, s.F.Dim())
		b[7] = 0.15
		return &lu.RHS{B: b, X: make([]float64, s.F.Dim())}
	}
	wide.SolveRHS(support(wide), &ws) // warm at the widest dimension
	for _, s := range []*lu.Solver{narrow, wide} {
		for name, r := range map[string]*lu.RHS{"support": support(s), "dense": dense(s)} {
			if allocs := testing.AllocsPerRun(20, func() { s.SolveRHS(r, &ws) }); allocs > 0 {
				t.Errorf("%s at n=%d after a wider warm-up: %v allocs per solve, want 0", name, s.F.Dim(), allocs)
			}
		}
	}
}
