// Property tests of the one solve path: SolveRHS on a support list or
// a dense vector must reproduce the permute/SolveInPlace/scatter
// reference bit for bit — across every factor state the pipelines
// produce (BF/INC/CINC/CLUDE), after randomized Bennett update
// sequences on both containers, through a workspace reused across
// solves, and under the aliasing and capacity-reuse contracts the
// workers rely on.
//
// External test package: the scenarios drive internal/core and
// internal/bennett, which import lu.
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

// randomRHS draws right-hand sides shaped like the serving layer's
// traffic, each as a support list and as the dense vector it scatters
// to: mostly single seeds (rwr/topk), some small seed sets whose
// repeated seeds must accumulate (ppr), and the occasional fully dense
// one (pagerank, dense only: its RHS has no support list).
func randomRHS(rng *xrand.Rand, k, n int) (rhs []lu.RHS, bs [][]float64) {
	rhs = make([]lu.RHS, k)
	bs = make([][]float64, k)
	for r := range rhs {
		b := make([]float64, n)
		switch rng.Intn(4) {
		case 0: // seed set, a repeated seed among them
			for s := 0; s < 2+rng.Intn(4); s++ {
				u, v := rng.Intn(n), 0.05*(1+rng.Float64())
				rhs[r].Idx = append(rhs[r].Idx, u, u)
				rhs[r].Val = append(rhs[r].Val, v, v/3)
				b[u] += v
				b[u] += v / 3
			}
		case 1: // dense uniform
			v := 0.15 / float64(n)
			for i := range b {
				b[i] = v
			}
			rhs[r].B = append([]float64(nil), b...)
		default: // single seed
			u, v := rng.Intn(n), 0.15*(1+rng.Float64())
			rhs[r].Idx, rhs[r].Val = []int{u}, []float64{v}
			b[u] = v
		}
		bs[r] = b
	}
	return rhs, bs
}

// reference is the solve spelled out on the sparse permutations,
// independently of lu's own permute/scatter code: b' = P·b, one
// SolveInPlace, x = Q·x'.
func reference(s *lu.Solver, b []float64) []float64 {
	bp := s.O.Row.Apply(b)
	s.F.SolveInPlace(bp)
	return s.O.Col.Scatter(bp)
}

// solveAll is the reference over every right-hand side.
func solveAll(s *lu.Solver, bs [][]float64) [][]float64 {
	want := make([][]float64, len(bs))
	for r, b := range bs {
		want[r] = reference(s, b)
	}
	return want
}

// assertSameX asserts the bit-identity contract on every X.
func assertSameX(t *testing.T, tag string, rhs []lu.RHS, want [][]float64) {
	t.Helper()
	for r := range rhs {
		if len(rhs[r].X) != len(want[r]) {
			t.Fatalf("%s: rhs %d has %d entries, want %d", tag, r, len(rhs[r].X), len(want[r]))
		}
		for i := range want[r] {
			if rhs[r].X[i] != want[r][i] {
				t.Fatalf("%s: rhs %d differs at %d: %v vs %v", tag, r, i, rhs[r].X[i], want[r][i])
			}
		}
	}
}

// checkSolves solves every right-hand side through SolveRHS on one
// workspace and through Solve on its dense form, and asserts both
// against the reference.
func checkSolves(t *testing.T, tag string, s *lu.Solver, rhs []lu.RHS, bs [][]float64, ws *lu.SolveWorkspace) {
	t.Helper()
	want := solveAll(s, bs)
	for r := range rhs {
		s.SolveRHS(&rhs[r], ws)
	}
	assertSameX(t, tag+" SolveRHS", rhs, want)
	solved := make([]lu.RHS, len(bs))
	for r, b := range bs {
		solved[r].X = s.Solve(b)
	}
	assertSameX(t, tag+" Solve", solved, want)
}

// TestSupportListMatchesSolveAcrossAlgorithms pins every factor state
// the four pipelines emit and replays random right-hand sides through
// both entry points.
func TestSupportListMatchesSolveAcrossAlgorithms(t *testing.T) {
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
			var ws lu.SolveWorkspace // shared across solvers on purpose
			for _, s := range solvers {
				rhs, bs := randomRHS(rng, 6, s.F.Dim())
				checkSolves(t, string(alg), s, rhs, bs, &ws)
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

// TestSupportListAfterRandomBennettSequences drives both containers
// through randomized jumps across the sequence and checks the contract
// after every jump.
func TestSupportListAfterRandomBennettSequences(t *testing.T) {
	p := newBennettPair(t, 83)
	n := p.static.Dim()
	var ws lu.SolveWorkspace
	for step := 0; step < 12; step++ {
		p.step(t)
		k := 1 + p.rng.Intn(6)
		rhs, bs := randomRHS(p.rng, k, n)
		checkSolves(t, "static", p.sSolver, rhs, bs, &ws)
		rhs, bs = randomRHS(p.rng, k, n)
		checkSolves(t, "dynamic", p.dSolver, rhs, bs, &ws)
	}
}

// TestSolveRHSDstContract: SolveRHS must reuse X capacity and tolerate
// X aliasing B — PageRank solves its right-hand side in place.
func TestSolveRHSDstContract(t *testing.T) {
	ems := testEMS(t)
	ord := order.Markowitz(ems.Matrices[0].Pattern()).Ordering
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord)
	if err != nil {
		t.Fatal(err)
	}
	n := ems.N()
	var ws lu.SolveWorkspace
	for seed := uint64(5); seed < 9; seed++ {
		rhs, bs := randomRHS(xrand.New(seed), 1, n)
		want := solveAll(s, bs)

		// Capacity reuse.
		dst := make([]float64, 0, n)
		rhs[0].X = dst
		s.SolveRHS(&rhs[0], &ws)
		if &rhs[0].X[0] != &dst[:1][0] {
			t.Errorf("seed %d: SolveRHS did not reuse X capacity", seed)
		}
		assertSameX(t, "reuse", rhs, want)

		// Aliasing: solve the dense form over its own right-hand side.
		alias := []lu.RHS{{B: append([]float64(nil), bs[0]...)}}
		alias[0].X = alias[0].B
		s.SolveRHS(&alias[0], &ws)
		assertSameX(t, "aliased", alias, want)
	}
}
