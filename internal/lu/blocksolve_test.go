// Property tests of the blocked full-substitution route: k right-hand
// sides through one traversal must reproduce k independent Solve calls
// bit for bit — across every factor state the pipelines produce
// (BF/INC/CINC/CLUDE), after randomized Bennett update sequences on
// both containers, for every block width the serving layer batches,
// and under the aliasing and capacity-reuse contracts the workers rely
// on.
//
// External test package, like the reach-route harness it extends: the
// scenarios drive internal/core and internal/bennett, which import lu.
package lu_test

import (
	"testing"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// blockRHS draws k dense right-hand sides shaped like the serving
// layer's traffic: mostly sparse basis-like vectors (rwr/topk), some
// small seed sets (ppr), and the occasional fully dense one (pagerank).
func blockRHS(rng *xrand.Rand, k, n int) [][]float64 {
	bs := make([][]float64, k)
	for r := range bs {
		b := make([]float64, n)
		switch rng.Intn(4) {
		case 0: // seed set
			for s := 0; s < 2+rng.Intn(4); s++ {
				b[rng.Intn(n)] += 0.05 * (1 + rng.Float64())
			}
		case 1: // dense uniform
			v := 0.15 / float64(n)
			for i := range b {
				b[i] = v
			}
		default: // single seed
			b[rng.Intn(n)] = 0.15 * (1 + rng.Float64())
		}
		bs[r] = b
	}
	return bs
}

// denseBlock wraps dense vectors as a SolveRHS block with fresh
// solution vectors (nil X allocates).
func denseBlock(bs [][]float64) []lu.RHS {
	rhs := make([]lu.RHS, len(bs))
	for r, b := range bs {
		rhs[r].B = b
	}
	return rhs
}

// solveAll is the reference: k independent allocating Solve calls.
func solveAll(s *lu.Solver, bs [][]float64) [][]float64 {
	want := make([][]float64, len(bs))
	for r, b := range bs {
		want[r] = s.Solve(b)
	}
	return want
}

// assertBlockEquals asserts the bit-identity contract on every X.
func assertBlockEquals(t *testing.T, tag string, rhs []lu.RHS, want [][]float64) {
	t.Helper()
	for r := range rhs {
		if len(rhs[r].X) != len(want[r]) {
			t.Fatalf("%s: k=%d rhs %d has %d entries, want %d", tag, len(rhs), r, len(rhs[r].X), len(want[r]))
		}
		for i := range want[r] {
			if rhs[r].X[i] != want[r][i] {
				t.Fatalf("%s: k=%d rhs %d differs at %d: %v vs %v",
					tag, len(rhs), r, i, rhs[r].X[i], want[r][i])
			}
		}
	}
}

// checkBlockMatchesSingles solves the block through the scalar block
// strategy and through the dispatcher on unfrozen factors (which must
// report the dense route at k = 1 and the scalar block beyond), and
// asserts the bit-identity contract both ways.
func checkBlockMatchesSingles(t *testing.T, tag string, s *lu.Solver, bs [][]float64, ws *lu.SolveWorkspace) {
	t.Helper()
	want := solveAll(s, bs)

	forced := denseBlock(bs)
	s.ForceBlock(forced, ws)
	assertBlockEquals(t, tag+" forced", forced, want)

	routed := denseBlock(bs)
	rep := s.SolveRHS(routed, false, ws)
	wantRoute := lu.RouteBlock
	if len(bs) == 1 {
		wantRoute = lu.RouteDense
	}
	if rep.Route != wantRoute || rep.Packed != nil || rep.ProbeAborted {
		t.Fatalf("%s: k=%d unfrozen dense block reported %+v, want route %s", tag, len(bs), rep, wantRoute)
	}
	assertBlockEquals(t, tag+" routed", routed, want)
}

// TestBlockRouteMatchesSolveAcrossAlgorithms pins every factor state
// the four pipelines emit and replays random blocks of every width the
// batching stage produces through both solve paths.
func TestBlockRouteMatchesSolveAcrossAlgorithms(t *testing.T) {
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
			rng := xrand.New(41)
			var ws lu.SolveWorkspace // shared across widths on purpose
			for _, s := range solvers {
				for _, k := range []int{1, 2, 3, 8} {
					bs := blockRHS(rng, k, s.F.Dim())
					checkBlockMatchesSingles(t, string(alg), s, bs, &ws)
				}
			}
		})
	}
}

// bennettPair builds the two containers the randomized Bennett tests
// drive: a static one over the USSP of the whole sequence (the CLUDE
// setup, so any jump's delta stays within the frozen structure) and a
// dynamic one from the first matrix's own pattern (the INC setup, where
// updates splice genuinely new fill into the lists). step jumps each
// to a random snapshot by one Bennett update batch.
type bennettPair struct {
	static        *lu.StaticFactors
	dynamic       *lu.DynamicFactors
	sSolver       *lu.Solver
	dSolver       *lu.Solver
	perm, perm2   []*sparse.CSR
	cur, cur2     int
	rng           *xrand.Rand
	snapshotCount int
	ws            bennett.Workspace
}

func newBennettPair(t *testing.T, seed uint64) *bennettPair {
	t.Helper()
	ems := testEMS(t)
	union := ems.Matrices[0].Pattern()
	for _, m := range ems.Matrices[1:] {
		union = union.Union(m.Pattern())
	}
	ord := order.Markowitz(union).Ordering
	p := &bennettPair{rng: xrand.New(seed), snapshotCount: ems.Len()}
	p.perm = make([]*sparse.CSR, ems.Len())
	for i, m := range ems.Matrices {
		p.perm[i] = m.Permute(ord)
	}
	p.static = lu.NewStaticFactors(lu.Symbolic(union.Permute(ord)))
	if err := p.static.Factorize(p.perm[0]); err != nil {
		t.Fatal(err)
	}

	ord2 := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	p.perm2 = make([]*sparse.CSR, ems.Len())
	for i, m := range ems.Matrices {
		p.perm2[i] = m.Permute(ord2)
	}
	seedF := lu.NewStaticFactors(lu.Symbolic(p.perm2[0].Pattern()))
	if err := seedF.Factorize(p.perm2[0]); err != nil {
		t.Fatal(err)
	}
	p.dynamic = lu.NewDynamicFactors(seedF)

	p.sSolver = &lu.Solver{F: p.static, O: ord}
	p.dSolver = &lu.Solver{F: p.dynamic, O: ord2}
	return p
}

func (p *bennettPair) step(t *testing.T) {
	t.Helper()
	next := p.rng.Intn(p.snapshotCount)
	if err := p.ws.ApplyTerms(p.static, bennett.SplitTerms(sparse.Delta(p.perm[p.cur], p.perm[next])), nil); err != nil {
		t.Fatal(err)
	}
	p.cur = next
	next2 := p.rng.Intn(p.snapshotCount)
	if err := p.ws.ApplyTerms(p.dynamic, bennett.SplitTerms(sparse.Delta(p.perm2[p.cur2], p.perm2[next2])), nil); err != nil {
		t.Fatal(err)
	}
	p.cur2 = next2
}

// TestBlockRouteAfterRandomBennettSequences drives both containers
// through randomized jumps across the sequence and checks the contract
// after every jump.
func TestBlockRouteAfterRandomBennettSequences(t *testing.T) {
	p := newBennettPair(t, 83)
	n := p.static.Dim()
	var ws lu.SolveWorkspace
	for step := 0; step < 12; step++ {
		p.step(t)
		k := 1 + p.rng.Intn(6)
		checkBlockMatchesSingles(t, "static", p.sSolver, blockRHS(p.rng, k, n), &ws)
		checkBlockMatchesSingles(t, "dynamic", p.dSolver, blockRHS(p.rng, k, n), &ws)
	}
}

// TestSolveRHSDstContract: SolveRHS must reuse X capacity and tolerate
// X aliasing B — the workers batch in place — at k = 1 (dense route)
// and k = 3 (block route) alike.
func TestSolveRHSDstContract(t *testing.T) {
	ems := testEMS(t)
	ord := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord)
	if err != nil {
		t.Fatal(err)
	}
	n := ems.N()
	var ws lu.SolveWorkspace
	for _, k := range []int{1, 3} {
		bs := blockRHS(xrand.New(5), k, n)
		want := solveAll(s, bs)

		// Capacity reuse.
		rhs := denseBlock(bs)
		dsts := make([][]float64, k)
		for r := range rhs {
			dsts[r] = make([]float64, 0, n)
			rhs[r].X = dsts[r]
		}
		s.SolveRHS(rhs, false, &ws)
		for r := range rhs {
			if &rhs[r].X[0] != &dsts[r][:1][0] {
				t.Errorf("k=%d rhs %d: SolveRHS did not reuse X capacity", k, r)
			}
		}
		assertBlockEquals(t, "reuse", rhs, want)

		// Aliasing: solve the block over its own right-hand sides.
		alias := denseBlock(blockRHS(xrand.New(5), k, n))
		for r := range alias {
			alias[r].X = alias[r].B
		}
		s.SolveRHS(alias, false, &ws)
		assertBlockEquals(t, "aliased", alias, want)
	}
}
