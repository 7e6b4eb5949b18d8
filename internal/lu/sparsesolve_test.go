// Property tests of the reach-restricted route: the reach strategy
// must reproduce the dense Solve bit for bit on its reported support
// and the dense solution must be exactly zero everywhere else — across
// every factor state the pipelines produce (BF/INC/CINC/CLUDE) and
// after randomized Bennett update sequences on both containers. The
// dispatcher tests at the end hold SolveRHS's route report and input
// check to account.
//
// External test package: the scenarios drive internal/core and
// internal/bennett, which import lu.
package lu_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
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

// checkSparseMatchesDense solves one support-list right-hand side
// through the uncapped reach strategy and through Solve, and asserts
// the bit-identity contract.
func checkSparseMatchesDense(t *testing.T, tag string, s *lu.Solver, bIdx []int, bVal []float64, ws *lu.SolveWorkspace) {
	t.Helper()
	n := s.F.Dim()
	b := make([]float64, n)
	for k, u := range bIdx {
		b[u] += bVal[k]
	}
	dense := s.Solve(b)

	r := lu.RHS{Idx: bIdx, Val: bVal}
	if !s.ForceReach(&r, 0, ws) {
		t.Fatalf("%s: unlimited reach solve aborted", tag)
	}
	onSupport := make([]bool, n)
	for k, u := range r.XIdx {
		if onSupport[u] {
			t.Fatalf("%s: duplicate support index %d", tag, u)
		}
		onSupport[u] = true
		if r.XVal[k] != dense[u] {
			t.Fatalf("%s: x[%d] = %v sparse vs %v dense", tag, u, r.XVal[k], dense[u])
		}
	}
	for u := 0; u < n; u++ {
		if !onSupport[u] && dense[u] != 0 {
			t.Fatalf("%s: dense x[%d] = %v off the reported reach", tag, u, dense[u])
		}
	}
}

// randomRHS draws a single-seed or small multi-seed right-hand side.
func randomRHS(rng *xrand.Rand, n int) ([]int, []float64) {
	k := 1
	if rng.Intn(3) == 0 {
		k = 2 + rng.Intn(3)
	}
	idx := make([]int, k)
	val := make([]float64, k)
	for i := range idx {
		idx[i] = rng.Intn(n) // duplicates allowed: they must accumulate
		val[i] = 0.15 * (1 + rng.Float64())
	}
	return idx, val
}

// TestReachRouteMatchesDenseAcrossAlgorithms pins every factor state
// the four pipelines emit and replays random right-hand sides through
// both solve paths.
func TestReachRouteMatchesDenseAcrossAlgorithms(t *testing.T) {
	ems := testEMS(t)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			var solvers []*lu.Solver
			if _, err := core.Run(ems, alg, core.Options{
				Alpha:     0.95,
				OnFactors: func(i int, s *lu.Solver) { solvers = append(solvers, s.Clone()) },
			}); err != nil {
				t.Fatal(err)
			}
			if len(solvers) != ems.Len() {
				t.Fatalf("retained %d solvers, want %d", len(solvers), ems.Len())
			}
			rng := xrand.New(31)
			var ws lu.SolveWorkspace // shared across all solves on purpose
			for _, s := range solvers {
				for q := 0; q < 8; q++ {
					bIdx, bVal := randomRHS(rng, s.F.Dim())
					checkSparseMatchesDense(t, string(alg), s, bIdx, bVal, &ws)
				}
			}
		})
	}
}

// TestReachRouteAfterRandomBennettSequences drives both containers
// through randomized jumps across the sequence (each jump one Bennett
// update batch, splicing fill into the dynamic container, which must
// keep the column indices coherent) and checks the contract after
// every jump.
func TestReachRouteAfterRandomBennettSequences(t *testing.T) {
	p := newBennettPair(t, 99)
	n := p.static.Dim()
	var ws lu.SolveWorkspace
	for step := 0; step < 12; step++ {
		p.step(t)
		for q := 0; q < 4; q++ {
			bIdx, bVal := randomRHS(p.rng, n)
			checkSparseMatchesDense(t, "static", p.sSolver, bIdx, bVal, &ws)
			bIdx, bVal = randomRHS(p.rng, n)
			checkSparseMatchesDense(t, "dynamic", p.dSolver, bIdx, bVal, &ws)
		}
	}
}

// TestReachRouteCap: a cap below the true reach must abort before
// numeric work and leave the workspace reusable; a generous cap must
// succeed.
func TestReachRouteCap(t *testing.T) {
	ems := testEMS(t)
	ord := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord)
	if err != nil {
		t.Fatal(err)
	}
	var ws lu.SolveWorkspace
	r := lu.RHS{Idx: []int{3}, Val: []float64{0.15}}
	if !s.ForceReach(&r, 0, &ws) {
		t.Fatal("unlimited solve aborted")
	}
	reach := len(r.XIdx)
	if reach < 2 {
		t.Skipf("degenerate reach %d", reach)
	}
	if s.ForceReach(&r, reach-1, &ws) {
		t.Fatalf("cap %d below reach %d did not abort", reach-1, reach)
	}
	// The workspace must still produce correct answers after an abort.
	checkSparseMatchesDense(t, "post-abort", s, []int{3}, []float64{0.15}, &ws)
	if ok := s.ForceReach(&r, reach, &ws); !ok || len(r.XIdx) != reach {
		t.Fatalf("cap == reach failed (ok=%v len=%d want %d)", ok, len(r.XIdx), reach)
	}
}

// communitySolver factorizes the last snapshot of a DBLP-like stream
// with fully disjoint communities under the Markowitz ordering: a
// seed's dependency closure stays inside its community, so the reach
// route applies, and the coauthor cliques give the packed panels real
// width.
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

// TestSolveRHSRouteReport is the dispatcher's table: for each route it
// can choose, an input that takes it, the report it must file, and the
// same bits as Solve.
func TestSolveRHSRouteReport(t *testing.T) {
	comm := communitySolver(t, 8) // clustered static factors
	wikiEMS := testEMS(t)
	wiki, err := lu.FactorizeOrdered(wikiEMS.Matrices[0], order.Markowitz(wikiEMS.Matrices[0].Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	dyn := &lu.Solver{F: lu.NewDynamicFactors(wiki.F.(*lu.StaticFactors)), O: wiki.O}

	seedsOf := func(n, k int) []lu.RHS {
		rhs := make([]lu.RHS, k)
		for r := range rhs {
			rhs[r] = lu.RHS{Idx: []int{(37*r + 5) % n}, Val: []float64{0.15}}
		}
		return rhs
	}
	uniform := func(n int) []lu.RHS {
		b := make([]float64, n)
		for i := range b {
			b[i] = 0.15 / float64(n)
		}
		return []lu.RHS{{B: b}}
	}
	for _, tc := range []struct {
		name    string
		s       *lu.Solver
		rhs     []lu.RHS
		frozen  bool
		route   lu.Route
		aborted bool
		packed  bool
	}{
		{"support list on disjoint communities", comm, seedsOf(comm.F.Dim(), 1), true, lu.RouteReach, false, false},
		{"support list on a single blob", wiki, seedsOf(wiki.F.Dim(), 1), true, lu.RouteDense, true, false},
		{"dense vector never probes", comm, uniform(comm.F.Dim()), true, lu.RouteDense, false, false},
		{"live factors never pack", comm, seedsOf(comm.F.Dim(), 8), false, lu.RouteBlock, false, false},
		{"dynamic factors have no panels", dyn, seedsOf(dyn.F.Dim(), 8), true, lu.RouteBlock, false, false},
		{"frozen static block packs once", comm, seedsOf(comm.F.Dim(), 8), true, lu.RoutePanel, false, true},
		{"second block reuses the set", comm, seedsOf(comm.F.Dim(), 8), true, lu.RoutePanel, false, false},
		{"narrow block stays scalar", comm, seedsOf(comm.F.Dim(), 2), true, lu.RouteBlock, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ws lu.SolveWorkspace
			n := tc.s.F.Dim()
			rep := tc.s.SolveRHS(tc.rhs, tc.frozen, &ws)
			if rep.Route != tc.route || rep.ProbeAborted != tc.aborted || (rep.Packed != nil) != tc.packed {
				t.Fatalf("report %+v, want route=%s aborted=%v packed=%v", rep, tc.route, tc.aborted, tc.packed)
			}
			for r := range tc.rhs {
				b := tc.rhs[r].B
				if b == nil {
					b = make([]float64, n)
					for i, u := range tc.rhs[r].Idx {
						b[u] += tc.rhs[r].Val[i]
					}
				}
				want := tc.s.Solve(b)
				got := tc.rhs[r].X
				if rep.Route == lu.RouteReach {
					if rep.ReachRows != len(tc.rhs[r].XIdx) || rep.ReachRows == 0 || rep.ReachRows > n/4 {
						t.Fatalf("ReachRows=%d with %d support entries (n=%d)", rep.ReachRows, len(tc.rhs[r].XIdx), n)
					}
					got = make([]float64, n)
					for i, u := range tc.rhs[r].XIdx {
						got[u] = tc.rhs[r].XVal[i]
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rhs %d differs from Solve at %d: %v vs %v", r, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestSolveRHSInputCheck: the one entry point rejects, with both sizes
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
		rhs  []lu.RHS
		want string
	}{
		{"short dense vector", []lu.RHS{{B: make([]float64, n-1)}},
			"lu: SolveRHS right-hand side 0 has length 149, system dimension is 150"},
		{"long dense vector in a block", []lu.RHS{{B: make([]float64, n)}, {B: make([]float64, n+1)}},
			"lu: SolveRHS right-hand side 1 has length 151, system dimension is 150"},
		{"support index past n", []lu.RHS{{Idx: []int{n}, Val: []float64{1}}},
			"lu: SolveRHS right-hand side 0 has support index 150 outside [0,150)"},
		{"negative support index", []lu.RHS{{Idx: []int{-1}, Val: []float64{1}}},
			"lu: SolveRHS right-hand side 0 has support index -1 outside [0,150)"},
		{"ragged support list", []lu.RHS{{Idx: []int{1, 2}, Val: []float64{1}}},
			"lu: SolveRHS right-hand side 0 has 2 support indices but 1 values"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("panic %v, want %q", got, tc.want)
				}
			}()
			s.SolveRHS(tc.rhs, true, &lu.SolveWorkspace{})
		})
	}
}

// supportSolve answers one support-list right-hand side through SolveRHS
// and returns the report and the solution as a full vector.
func supportSolve(s *lu.Solver, seed int, ws *lu.SolveWorkspace) (lu.Report, []float64) {
	rhs := []lu.RHS{{Idx: []int{seed}, Val: []float64{0.15}}}
	rep := s.SolveRHS(rhs, true, ws)
	x := rhs[0].X
	if rep.Route == lu.RouteReach {
		x = make([]float64, s.F.Dim())
		for i, u := range rhs[0].XIdx {
			x[u] = rhs[0].XVal[i]
		}
	}
	return rep, x
}

// TestProbeSuspensionOnABlob: on Wiki-like factors all but a stray
// reach probe abort, so over a serving-sized stream the solver probes
// at most a tenth of its support-list solves, reports each unprobed one
// as skipped rather than aborted, and returns Solve's bits on every
// one of them.
func TestProbeSuspensionOnABlob(t *testing.T) {
	ems := testEMS(t)
	a := ems.Matrices[0]
	s, err := lu.FactorizeOrdered(a, order.Markowitz(a.Pattern()).Ordering)
	if err != nil {
		t.Fatal(err)
	}
	n := s.F.Dim()
	var ws lu.SolveWorkspace
	const solves = 2000
	var reach, aborted, skipped int
	for q := 0; q < solves; q++ {
		seed := (37*q + 5) % n
		rep, x := supportSolve(s, seed, &ws)
		outcome := byte('r')
		switch {
		case rep.Route == lu.RouteReach:
			reach++
		case rep.Route == lu.RouteDense && rep.ProbeAborted && !rep.ProbeSkipped:
			aborted++
			outcome = 'a'
		case rep.Route == lu.RouteDense && rep.ProbeSkipped && !rep.ProbeAborted:
			skipped++
			outcome = 's'
		default:
			t.Fatalf("solve %d: report %+v is none of reach / aborted / skipped", q, rep)
		}
		if q%97 == 0 {
			b := make([]float64, n)
			b[seed] = 0.15
			for i, want := range s.Solve(b) {
				if x[i] != want {
					t.Fatalf("solve %d (%c): x[%d] = %v, Solve gives %v", q, outcome, i, x[i], want)
				}
			}
		}
	}
	if reach+aborted+skipped != solves || (reach+aborted)*10 > solves {
		t.Fatalf("%d probes ran (%d fit) and %d were skipped over %d support-list solves; want at most a tenth probed",
			reach+aborted, reach, skipped, solves)
	}
}

// TestProbeSuspensionSparesCommunities: where seeds' reaches fit the
// cap, no streak builds, and every support-list solve stays on the
// reach route however long the stream — the suspension must not cost
// the clustered case its route.
func TestProbeSuspensionSparesCommunities(t *testing.T) {
	s := communitySolver(t, 8)
	n := s.F.Dim()
	var ws lu.SolveWorkspace
	for q := 0; q < 600; q++ {
		seed := (37*q + 5) % n
		rep, x := supportSolve(s, seed, &ws)
		if rep.Route != lu.RouteReach || rep.ProbeAborted || rep.ProbeSkipped {
			t.Fatalf("solve %d (seed %d): report %+v, want the reach route", q, seed, rep)
		}
		if q%53 == 0 {
			b := make([]float64, n)
			b[seed] = 0.15
			for i, want := range s.Solve(b) {
				if x[i] != want {
					t.Fatalf("solve %d: x[%d] = %v, Solve gives %v", q, i, x[i], want)
				}
			}
		}
	}
}

// TestProbeSuspensionSchedule pins the rule itself: two aborts in a row
// arm it, the solves skipped between probes double from 1 up to 63, and
// one probe that fits clears the streak, so a solver is never parked on
// the dense route by its past.
func TestProbeSuspensionSchedule(t *testing.T) {
	// Two disjoint halves under one ordering: a chain, whose single-seed
	// reach is its tail, and a small clique. Seeds at the head of the
	// chain abort, seeds in the clique fit.
	const chain, clique = 40, 4
	n := chain + clique
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	for i := 1; i < chain; i++ {
		c.Add(i, i-1, -0.5)
	}
	for i := chain; i < n; i++ {
		for j := chain; j < n; j++ {
			if i != j {
				c.Add(i, j, -0.1)
			}
		}
	}
	s, err := lu.FactorizeOrdered(c.ToCSR(), sparse.IdentityOrdering(n))
	if err != nil {
		t.Fatal(err)
	}
	var ws lu.SolveWorkspace
	routes := func(seeds ...int) string {
		var out []byte
		for _, seed := range seeds {
			rep, _ := supportSolve(s, seed, &ws)
			switch {
			case rep.Route == lu.RouteReach:
				out = append(out, 'r')
			case rep.ProbeSkipped:
				out = append(out, 's')
			case rep.ProbeAborted:
				out = append(out, 'a')
			}
		}
		return string(out)
	}
	const head, fits = 0, chain + 1
	// Abort, abort, skip, abort, skip — then the skip that was still owed
	// lands on a seed that would have fit, the next probe fits and clears
	// the streak, and the following aborts start counting from one again.
	if got, want := routes(head, head, head, head, head, fits, fits, head, head, head), "aasassraas"; got != want {
		t.Fatalf("routes %q, want %q", got, want)
	}
	// From there an all-abort stream skips 2, 4, … 32, then 63 for good.
	heads := make([]int, 400)
	got := routes(heads...)
	want := ""
	for _, skips := range []int{2, 4, 8, 16, 32, 63, 63, 63} {
		want += "a" + strings.Repeat("s", skips)
	}
	if !strings.HasPrefix(got, want) {
		t.Fatalf("all-abort stream routes\n%q, want it to begin\n%q", got, want)
	}
}
