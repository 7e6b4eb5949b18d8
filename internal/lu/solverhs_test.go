// Tests of the one entry point, SolveRHS: the same bits as Solve for
// support lists and dense vectors on both containers, and the input
// check.
//
// External test package: the scenarios drive internal/core and
// internal/bennett, which import lu.
package lu_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
)

// testEMS builds a small Wiki-like evolving matrix sequence.
func testEMS(t *testing.T) *graph.EMS {
	t.Helper()
	egs, err := gen.WikiSim(gen.WikiConfig{
		N: 150, T: 10, InitialEdges: 420, FinalEdges: 465,
		ChurnFrac: 0.25, EventRate: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph.DeriveEMS(egs, graph.RWRMatrix(0.85))
}

// communitySolver factorizes the last snapshot of a DBLP-like stream
// with fully disjoint communities under the Markowitz ordering: its
// factors are block diagonal up to the ordering, the shape where a
// support list's solution is zero outside the seed's community.
func communitySolver(t testing.TB, communities int) *lu.Solver {
	t.Helper()
	egs, err := gen.DBLPSim(gen.DBLPConfig{
		N: 600, T: 80, Communities: communities, InitialPapers: 500,
		PapersPerDay: 4, MaxCoauthors: 7, CrossCommunity: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85))
	a := ems.Matrices[ems.Len()-1]
	s, err := lu.FactorizeOrdered(a, order.Markowitz(a.Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSolveRHSRouteReport keeps the name of the table that once held
// the route SolveRHS reported for each input: every input still on the
// table — a support list on either container, a dense vector — must
// give the same bits as Solve.
func TestSolveRHSRouteReport(t *testing.T) {
	comm := communitySolver(t, 8) // clustered static factors
	wikiEMS := testEMS(t)
	wiki, err := lu.FactorizeOrdered(wikiEMS.Matrices[0], order.Markowitz(wikiEMS.Matrices[0].Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	dyn := &lu.Solver{F: lu.NewDynamicFactors(wiki.F.(*lu.StaticFactors)), O: wiki.O}

	seed := func(n int) lu.RHS {
		return lu.RHS{Idx: []int{5 % n}, Val: []float64{0.15}}
	}
	uniform := func(n int) lu.RHS {
		b := make([]float64, n)
		for i := range b {
			b[i] = 0.15 / float64(n)
		}
		return lu.RHS{B: b}
	}
	for _, tc := range []struct {
		name string
		s    *lu.Solver
		rhs  lu.RHS
	}{
		{"support list on disjoint communities", comm, seed(comm.F.Dim())},
		{"support list on a single blob", wiki, seed(wiki.F.Dim())},
		{"support list on dynamic factors", dyn, seed(dyn.F.Dim())},
		{"dense vector never probes", comm, uniform(comm.F.Dim())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ws lu.SolveWorkspace
			n := tc.s.F.Dim()
			tc.s.SolveRHS(&tc.rhs, &ws)
			b := tc.rhs.B
			if b == nil {
				b = make([]float64, n)
				for i, u := range tc.rhs.Idx {
					b[u] += tc.rhs.Val[i]
				}
			}
			want := reference(tc.s, b)
			for i := range want {
				if tc.rhs.X[i] != want[i] {
					t.Fatalf("differs from Solve at %d: %v vs %v", i, tc.rhs.X[i], want[i])
				}
			}
		})
	}
}

// TestSolveRHSInputCheck: both entry points reject, with both sizes
// named, what the old entry points index-panicked on or silently
// truncated.
func TestSolveRHSInputCheck(t *testing.T) {
	ems := testEMS(t)
	s, err := lu.FactorizeOrdered(ems.Matrices[0], order.Markowitz(ems.Matrices[0].Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	n := ems.N()
	for _, tc := range []struct {
		name string
		rhs  lu.RHS
		want string
	}{
		{"short dense vector", lu.RHS{B: make([]float64, n-1)},
			"lu: right-hand side has length 149, system dimension is 150"},
		{"support index past n", lu.RHS{Idx: []int{n}, Val: []float64{1}},
			"lu: right-hand side has support index 150 outside [0,150)"},
		{"negative support index", lu.RHS{Idx: []int{-1}, Val: []float64{1}},
			"lu: right-hand side has support index -1 outside [0,150)"},
		{"ragged support list", lu.RHS{Idx: []int{1, 2}, Val: []float64{1}},
			"lu: right-hand side has 2 support indices but 1 values"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			s.SolveRHS(&tc.rhs, &lu.SolveWorkspace{})
		})
	}
	// Solve runs the same check.
	defer func() {
		if got, want := recover(), "lu: right-hand side has length 151, system dimension is 150"; got != want {
			t.Fatalf("Solve: panic %v, want %q", got, want)
		}
	}()
	s.Solve(make([]float64, n+1))
}
