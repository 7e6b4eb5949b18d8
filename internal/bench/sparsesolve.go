package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// SparseSolve measures the reach-restricted substitution kernel
// (Factors.SolveReachInPlace behind two sparse.ReachWorkspace probes)
// against the dense one (Factors.SolveInPlace) for single-seed
// right-hand sides — the two routes lu.Solver.SolveRHS chooses between
// at k = 1. Both kernels are forced, uncapped, on the permuted factors
// directly, so every row reports both sides whatever the dispatcher
// would have picked; the "routed reach" column then says what share of
// the same seeds SolveRHS does send down the reach route, which is what
// keeps its 0.25·n reach cap checkable against the measured crossover.
//
// Two sweeps on the DBLP-like generator:
//
//  1. Community count with fully partitioned communities (no
//     cross-community papers): a seed's dependency closure stays
//     inside its community, so the reach — and the reach kernel's work
//     — shrinks as 1/C while the dense kernel still sweeps all of n.
//     This is the clustered regime the reach route exists for.
//  2. Cross-community linkage at a fixed community count: every added
//     bridge inflates the reach toward n, degrading the reach kernel
//     below the dense one — the data behind the reach cap.
func SparseSolve(d Datasets) ([]*Table, error) {
	cols := []string{"fill |L+U+D|", "avg reach frac",
		"dense/query", "sparse/query", "speedup", "routed reach"}
	clusters := &Table{
		Title:  fmt.Sprintf("Single-seed solve: sparse vs dense vs community count (DBLP-like, n=%d, disjoint communities)", d.DBLP.N),
		Header: append([]string{"communities"}, cols...),
	}
	bridges := &Table{
		Title:  fmt.Sprintf("Single-seed solve: sparse vs dense vs cross-community linkage (DBLP-like, n=%d, 8 communities)", d.DBLP.N),
		Header: append([]string{"cross frac"}, cols...),
	}
	verify := &Table{
		Title:  "Sparse-path checksum (max |sparse − dense| over sampled queries; must be 0)",
		Header: []string{"config", "max abs diff"},
	}

	for _, comm := range []int{1, 2, 4, 8, 16} {
		cfg := d.DBLP
		cfg.Communities = comm
		cfg.CrossCommunity = 0
		row, check, err := sparseVsDense(d, cfg, fmt.Sprint(comm))
		if err != nil {
			return nil, err
		}
		clusters.Rows = append(clusters.Rows, row)
		verify.Rows = append(verify.Rows, check)
	}
	for _, cross := range []float64{0, 0.01, 0.05, 0.2} {
		cfg := d.DBLP
		cfg.Communities = 8
		cfg.CrossCommunity = cross
		row, check, err := sparseVsDense(d, cfg, fmt.Sprintf("cross=%g", cross))
		if err != nil {
			return nil, err
		}
		bridges.Rows = append(bridges.Rows, row)
		verify.Rows = append(verify.Rows, check)
	}
	return []*Table{clusters, bridges, verify}, nil
}

// sparseVsDense times both kernels over a sampled single-seed stream
// on the last snapshot of one generator configuration, returning the
// result row (led by the caller's sweep label) and the checksum row.
// Seeds are positions in the permuted system: the kernels never see
// the ordering, so the numbers isolate pure substitution.
func sparseVsDense(d Datasets, cfg gen.DBLPConfig, label string) (row, check []string, err error) {
	egs, err := gen.DBLPSim(cfg)
	if err != nil {
		return nil, nil, err
	}
	ems := graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(d.Damping))
	a := ems.Matrices[ems.Len()-1]
	solver, err := lu.FactorizeOrdered(a, orderOf(a))
	if err != nil {
		return nil, nil, err
	}
	fac := solver.F
	n := a.N()
	restart := 1 - d.Damping

	rng := xrand.New(77)
	q := minInt(n, 200)
	seeds := make([]int, q)
	for i := range seeds {
		seeds[i] = rng.Intn(n)
	}
	const reps = 5

	// Dense kernel: one reusable vector, cleared per query.
	dense := make([]float64, n)
	solveDense := func(p int) {
		for i := range dense {
			dense[i] = 0
		}
		dense[p] = restart
		fac.SolveInPlace(dense)
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range seeds {
			solveDense(p)
		}
	}
	denseT := time.Since(t0) / time.Duration(reps*q)

	// Reach kernel, uncapped so the table reports the true reach: two
	// symbolic probes, the restricted substitution, and the re-zeroing
	// that keeps the scatter vector reusable.
	var fwd, bwd sparse.ReachWorkspace
	lsucc, usucc := fac.LSucc, fac.USucc
	x := make([]float64, n)
	solveReach := func(p int) []int {
		freach, _ := fwd.Reach(n, []int{p}, lsucc, 0)
		breach, _ := bwd.Reach(n, freach, usucc, 0)
		x[p] = restart
		fac.SolveReachInPlace(x, freach, breach)
		return breach
	}
	rows := 0
	t1 := time.Now()
	for r := 0; r < reps; r++ {
		rows = 0
		for _, p := range seeds {
			breach := solveReach(p)
			rows += len(breach)
			for _, i := range breach {
				x[i] = 0
			}
		}
	}
	sparseT := time.Since(t1) / time.Duration(reps*q)

	// Correctness spot check outside the timed loops.
	maxDiff := 0.0
	for _, p := range seeds[:minInt(q, 20)] {
		solveDense(p)
		for _, i := range solveReach(p) {
			dense[i] -= x[i]
			x[i] = 0
		}
		for _, v := range dense {
			if diff := math.Abs(v); diff > maxDiff {
				maxDiff = diff
			}
		}
	}

	// What the dispatcher does with the same stream.
	var ws lu.SolveWorkspace
	rhs := []lu.RHS{{Idx: []int{0}, Val: []float64{restart}}}
	routed := 0
	for _, p := range seeds {
		rhs[0].Idx[0] = solver.O.Row[p]
		if solver.SolveRHS(rhs, &ws).Route == lu.RouteReach {
			routed++
		}
	}

	reachFrac := float64(rows) / float64(q*n)
	row = []string{
		label,
		fmt.Sprint(fac.Size()),
		f(reachFrac),
		durUS(denseT),
		durUS(sparseT),
		f(speedup(denseT, sparseT)),
		f(float64(routed) / float64(q)),
	}
	return row, []string{label, f(maxDiff)}, nil
}
