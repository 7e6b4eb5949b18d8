// Property tests of the supernodal panel route: the packed strategy
// must reproduce Solve bit for bit at every width — across every factor
// state the pipelines produce (BF/INC/CINC/CLUDE; the dispatcher keeps
// DynamicFactors solvers on the scalar block), after randomized Bennett
// update sequences, for relaxation widths 0–4, and for every block
// width the serving layer batches (1–32 right-hand sides). Routing
// through panels must be purely an execution-schedule decision, exactly
// like blocking and the reach route before it.
package lu_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/xrand"
)

// panelKs are the RHS counts the panel contract is checked at.
var panelKs = []int{1, 2, 3, 8, 17, 32}

// checkPanelsMatchScalar solves the block through the packed strategy
// and asserts bit-identity with Solve on every element. A solver with
// no panel form (DynamicFactors) must instead be kept on the scalar
// route by the dispatcher even when declared frozen.
func checkPanelsMatchScalar(t *testing.T, tag string, s *lu.Solver, bs [][]float64, ws *lu.SolveWorkspace) {
	t.Helper()
	want := solveAll(s, bs)
	rhs := denseBlock(bs)
	if !s.ForcePanel(rhs, ws) {
		rep := s.SolveRHS(rhs, true, ws)
		if rep.Route == lu.RoutePanel || rep.Packed != nil {
			t.Fatalf("%s: solver without a panel form reported %+v", tag, rep)
		}
	}
	assertBlockEquals(t, tag+" panels", rhs, want)
}

// checkPanelSetMatchesFactors compares a packed set against the source
// container's scalar block sweep on copies of the same vectors — the
// factor-level form of the contract, exercised per relaxation.
func checkPanelSetMatchesFactors(t *testing.T, tag string, f *lu.StaticFactors, ps *lu.PanelSet, xs [][]float64, ws *lu.SolveWorkspace) {
	t.Helper()
	want := make([][]float64, len(xs))
	for r, x := range xs {
		want[r] = append([]float64(nil), x...)
	}
	f.SolveBlockInPlace(want)
	ps.SolveBlockInPlace(xs, ws)
	for r := range xs {
		for i := range want[r] {
			if xs[r][i] != want[r][i] {
				t.Fatalf("%s: k=%d rhs %d differs at %d: %v vs %v",
					tag, len(xs), r, i, xs[r][i], want[r][i])
			}
		}
	}
}

// TestPanelRouteMatchesSolveAcrossAlgorithms pins every factor state
// the four pipelines emit and replays random blocks through the panel
// strategy and Solve. INC/CINC retain DynamicFactors solvers, so this
// also covers the dispatcher keeping them on the scalar block.
func TestPanelRouteMatchesSolveAcrossAlgorithms(t *testing.T) {
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
			rng := xrand.New(59)
			var ws lu.SolveWorkspace // shared across widths on purpose
			for _, s := range solvers {
				for _, k := range panelKs {
					bs := blockRHS(rng, k, s.F.Dim())
					checkPanelsMatchScalar(t, string(alg), s, bs, &ws)
				}
			}
		})
	}
}

// TestPanelSolveRelaxationWidths packs one static container at every
// relaxation the knob exposes (plus a narrow max width) and checks the
// factor-level contract at every block width.
func TestPanelSolveRelaxationWidths(t *testing.T) {
	ems := testEMS(t)
	union := ems.Matrices[0].Pattern()
	for _, m := range ems.Matrices[1:] {
		union = union.Union(m.Pattern())
	}
	ord := order.Markowitz(union).Ordering
	static := lu.NewStaticFactors(lu.Symbolic(union.Permute(ord)))
	if err := static.Factorize(ems.Matrices[0].Permute(ord)); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(67)
	var ws lu.SolveWorkspace
	n := ems.N()
	for relax := 0; relax <= 4; relax++ {
		for _, maxWidth := range []int{0, 4} {
			ps := lu.NewPanelSet(static, relax, maxWidth)
			if got := ps.Bounds(); got[len(got)-1] != n {
				t.Fatalf("relax=%d: bounds end %d, want %d", relax, got[len(got)-1], n)
			}
			for _, k := range panelKs {
				xs := blockRHS(rng, k, n)
				checkPanelSetMatchesFactors(t, "relax", static, ps, xs, &ws)
			}
		}
	}
}

// TestPanelSolveAfterRandomBennettSequences drives the static container
// through randomized Bennett jumps, repacking after each (panels
// snapshot values, so an update invalidates the previous set), cycling
// the relaxation, and checks the contract after every jump. The
// dynamic container rides along through the dispatcher's scalar route.
func TestPanelSolveAfterRandomBennettSequences(t *testing.T) {
	p := newBennettPair(t, 97)
	n := p.static.Dim()
	var ws lu.SolveWorkspace
	for step := 0; step < 12; step++ {
		p.step(t)
		k := 1 + p.rng.Intn(8)
		ps := lu.NewPanelSet(p.static, step%5, 0)
		checkPanelSetMatchesFactors(t, "bennett", p.static, ps, blockRHS(p.rng, k, n), &ws)
		checkPanelsMatchScalar(t, "dynamic", p.dSolver, blockRHS(p.rng, k, n), &ws)
	}
}

// TestPanelSetStats sanity-checks the packing accounting the serving
// metrics and the bench report expose.
func TestPanelSetStats(t *testing.T) {
	ems := testEMS(t)
	ord := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord)
	if err != nil {
		t.Fatal(err)
	}
	ps, built := s.PanelsBuild()
	if !built || ps == nil {
		t.Fatalf("PanelsBuild on a static solver: ps=%v built=%v", ps, built)
	}
	if _, again := s.PanelsBuild(); again {
		t.Fatal("second PanelsBuild reported built")
	}
	n := ems.N()
	b := ps.Bounds()
	if b[0] != 0 || b[len(b)-1] != n || ps.NumPanels() != len(b)-1 {
		t.Fatalf("bounds %v inconsistent for n=%d, panels=%d", b, n, ps.NumPanels())
	}
	hist := ps.WidthHistogram()
	panels, cols, covered := 0, 0, 0
	for w, c := range hist {
		panels += c
		cols += w * c
		if w >= 2 {
			covered += w * c
		}
	}
	if panels != ps.NumPanels() || cols != n || covered != ps.ColsCovered() {
		t.Fatalf("histogram %v: panels=%d cols=%d covered=%d, want %d/%d/%d",
			hist, panels, cols, covered, ps.NumPanels(), n, ps.ColsCovered())
	}
	if mw := ps.MeanWidth(); mw < 1 || mw > float64(ps.MaxWidth()) {
		t.Fatalf("mean width %v outside [1, %d]", mw, ps.MaxWidth())
	}
	if ff := ps.FillFrac(); ff < 0 || ff >= 1 {
		t.Fatalf("fill fraction %v outside [0, 1)", ff)
	}
}

// TestSolveWorkspaceShrinkGrowReuse is the alloc-regression contract:
// a workspace warmed at width k must solve at any width <= k —
// including shrink-then-regrow sequences — without allocating, on the
// scalar and the panel strategy alike, and the reach strategy must be
// allocation-free once warm.
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
	s.PanelsBuild() // pack outside the measured region

	// Warm at 16, shrink to 2, then measure regrowth to 16: the
	// workspace must serve hidden capacity, not reallocate it.
	for _, k := range []int{16, 2} {
		s.ForceBlock(block(k), &ws)
		s.ForcePanel(block(k), &ws)
	}
	rhs := block(16)
	one := lu.RHS{Idx: []int{3}, Val: []float64{0.15}}
	s.ForceReach(&one, 0, &ws)
	for name, solve := range map[string]func(){
		"block": func() { s.ForceBlock(rhs, &ws) },
		"panel": func() { s.ForcePanel(rhs, &ws) },
		"reach": func() { s.ForceReach(&one, 0, &ws) },
		"entry": func() { s.SolveRHS(rhs, true, &ws) },
	} {
		if allocs := testing.AllocsPerRun(20, solve); allocs > 0 {
			t.Errorf("%s after shrink/grow: %v allocs per solve, want 0", name, allocs)
		}
	}
}
