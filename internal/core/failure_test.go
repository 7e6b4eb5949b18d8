package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// singularEMS builds an EMS whose middle matrix is exactly singular.
func singularEMS() *graph.EMS {
	rng := xrand.New(99)
	n := 10
	mk := func(singular bool) *sparse.CSR {
		c := sparse.NewCOO(n)
		for i := 0; i < n; i++ {
			if singular && (i == 3 || i == 4) {
				// Rows 3 and 4 are identical → exactly singular.
				c.Add(i, 3, 1)
				c.Add(i, 4, 1)
				continue
			}
			c.Add(i, i, 2+rng.Float64())
			if i > 0 {
				c.Add(i, i-1, -0.3)
			}
		}
		return c.ToCSR()
	}
	good := mk(false)
	bad := mk(true)
	return &graph.EMS{Matrices: []*sparse.CSR{good, bad, good}}
}

// swapEMS builds A0, A1, A2 where A1 is A0 with rows 0 and 1 swapped
// inside a dense, generic leading block, and A2 is A1 with one more
// entry changed. A1 and A2 decompose in any diagonal ordering, but ∆A
// between A0 and A1 is two row terms, and after either one the matrix
// holds the same row twice: exactly singular, so Bennett's step must
// fail on an intermediate pivot and the engine must refactorize.
func swapEMS() *graph.EMS {
	rng := xrand.New(7)
	const n = 6
	block := [3][3]float64{}
	for i := range block {
		for j := range block[i] {
			block[i][j] = 0.5 + rng.Float64()
		}
	}
	mk := func(swap bool, extra float64) *sparse.CSR {
		c := sparse.NewCOO(n)
		for i := 0; i < 3; i++ {
			src := i
			if swap && i < 2 {
				src = 1 - i
			}
			for j := 0; j < 3; j++ {
				c.Add(i, j, block[src][j])
			}
		}
		for i := 3; i < n; i++ {
			c.Add(i, i, 3)
			c.Add(i, i-1, -0.5)
			c.Add(i-1, i, -0.25)
		}
		c.Add(n-1, n-1, extra)
		return c.ToCSR()
	}
	return &graph.EMS{Matrices: []*sparse.CSR{mk(false, 0), mk(true, 0), mk(true, 0.75)}}
}

// TestRefactorizationFallback makes the update stage's one remaining
// whole-matrix path run: the failed step is refactorized from A1 itself,
// its snapshot solves A1, and the next snapshot is a Bennett update of
// the refactorized factors that solves A2.
func TestRefactorizationFallback(t *testing.T) {
	ems := swapEMS()
	b := []float64{1, -2, 0.5, 3, -1, 2}
	for _, alg := range []Algorithm{INC, CINC, CLUDE} {
		res, err := Run(ems, alg, Options{
			Alpha: 0, // one cluster: every step is an update
			OnFactors: func(i int, s *lu.Solver) {
				x := s.Solve(b)
				r := ems.Matrices[i].MulVec(x)
				for k := range r {
					if d := math.Abs(r[k] - b[k]); d > 1e-12 {
						t.Fatalf("%s snapshot %d: residual %g at row %d", alg, i, d, k)
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Clusters) != 1 {
			t.Fatalf("%s: %d clusters, want 1", alg, len(res.Clusters))
		}
		// The step to A2 updated the refactorized factors: it did not
		// refactorize again.
		if res.Refactorizations != 1 {
			t.Fatalf("%s: %d refactorizations, want exactly 1", alg, res.Refactorizations)
		}
	}
}

// symmetricSwapEMS is swapEMS's symmetric counterpart: A0 holds
// [[2,1],[1,2]] beside a symmetric tridiagonal block, A1 makes the pair
// [[8,4],[4,8]], and A2 changes one more diagonal entry. ∆A from A0 to A1
// is one symmetric pair and two diagonal entries, whose cover holds both
// indices; whichever comes first in the ordering owns the pair, and its
// cross alone leaves [[8,4],[4,2]] or [[2,4],[4,8]] — exactly singular.
func symmetricSwapEMS() *graph.EMS {
	const n = 6
	mk := func(pair [3]float64, extra float64) *sparse.CSR {
		c := sparse.NewCOO(n)
		c.Add(0, 0, pair[0])
		c.Add(0, 1, pair[1])
		c.Add(1, 0, pair[1])
		c.Add(1, 1, pair[2])
		for i := 2; i < n; i++ {
			c.Add(i, i, 3)
			if i > 2 {
				c.Add(i, i-1, -0.5)
				c.Add(i-1, i, -0.5)
			}
		}
		c.Add(n-1, n-1, extra)
		return c.ToCSR()
	}
	return &graph.EMS{Matrices: []*sparse.CSR{mk([3]float64{2, 1, 2}, 0), mk([3]float64{8, 4, 8}, 0), mk([3]float64{8, 4, 8}, 0.75)}}
}

// TestSymmetricRefactorizationFallback is TestRefactorizationFallback
// on CLUDE's symmetric cross path: the factors are their own transpose
// and ∆A is symmetric, so the step to A1 runs as crosses, fails on the
// singular intermediate, and is refactorized; the step to A2 is a cross
// update of the refactorized factors. Every snapshot solves its matrix.
func TestSymmetricRefactorizationFallback(t *testing.T) {
	ems := symmetricSwapEMS()
	b := []float64{1, -2, 0.5, 3, -1, 2}
	res, err := Run(ems, CLUDE, Options{
		Alpha: 0,
		OnFactors: func(i int, s *lu.Solver) {
			if f := s.F.(*lu.StaticFactors); !f.Mirrored() {
				t.Fatalf("snapshot %d: factors not their own transpose, so the symmetric path cannot run", i)
			}
			x := s.Solve(b)
			r := ems.Matrices[i].MulVec(x)
			for k := range r {
				if d := math.Abs(r[k] - b[k]); d > 1e-12 {
					t.Fatalf("snapshot %d: residual %g at row %d", i, d, k)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Refactorizations != 1 {
		t.Fatalf("%d clusters and %d refactorizations, want 1 and exactly 1", len(res.Clusters), res.Refactorizations)
	}
}

func TestBFSurfacesSingularMatrix(t *testing.T) {
	_, err := Run(singularEMS(), BF, Options{})
	if err == nil {
		t.Fatal("BF accepted a singular matrix")
	}
	if !strings.Contains(err.Error(), "singular") {
		t.Errorf("error does not mention singularity: %v", err)
	}
}

func TestStreamingOrderAndCount(t *testing.T) {
	// OnFactors must fire exactly once per index, strictly in order,
	// for every algorithm.
	ems := smallEMS(t)
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		seen := make([]int, 0, ems.Len())
		_, err := Run(ems, alg, Options{
			Alpha: 0.93,
			OnFactors: func(i int, s *lu.Solver) {
				seen = append(seen, i)
				if s == nil || s.F == nil {
					t.Fatalf("%s: nil solver at %d", alg, i)
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(seen) != ems.Len() {
			t.Fatalf("%s: %d callbacks, want %d", alg, len(seen), ems.Len())
		}
		for k, v := range seen {
			if v != k {
				t.Fatalf("%s: out-of-order callback %v", alg, seen)
			}
		}
	}
}

func TestSolversRemainAccurateUnderLongUpdateChains(t *testing.T) {
	// Accumulated Bennett error across a whole cluster must stay far
	// below measure-level accuracy. Compare CLUDE's streamed solutions
	// against fresh per-snapshot factorizations.
	ems := smallEMS(t)
	b := make([]float64, ems.N())
	b[1] = 0.15
	var worst float64
	_, err := Run(ems, CLUDE, Options{
		Alpha: 0.85, // big clusters → long update chains
		OnFactors: func(i int, s *lu.Solver) {
			got := s.Solve(b)
			fresh, ferr := lu.FactorizeOrdered(ems.Matrices[i], sparse.IdentityOrdering(ems.N()))
			if ferr != nil {
				t.Fatal(ferr)
			}
			want := fresh.Solve(b)
			if d := sparse.NormInfDiff(got, want); d > worst {
				worst = d
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-8 {
		t.Errorf("accumulated update error %g too large", worst)
	}
}

func TestEmptyishEMS(t *testing.T) {
	// A single-matrix EMS must work for every algorithm.
	a := sparse.Identity(6)
	ems := &graph.EMS{Matrices: []*sparse.CSR{a}}
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		res, err := Run(ems, alg, Options{Alpha: 0.95, MeasureQuality: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.T != 1 {
			t.Fatalf("%s: T = %d", alg, res.T)
		}
	}
}

func TestIdenticalSnapshotsOneCluster(t *testing.T) {
	// A constant EMS clusters into a single cluster at any α and
	// Bennett receives empty deltas.
	rng := xrand.New(123)
	n := 30
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 3)
		c.Add(i, (i+1)%n, -0.5*rng.Float64())
	}
	a := c.ToCSR()
	ems := &graph.EMS{Matrices: []*sparse.CSR{a, a, a, a}}
	res, err := Run(ems, CLUDE, Options{Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Errorf("constant EMS split into %d clusters", len(res.Clusters))
	}
	if res.Bennett.StepsTouched != 0 {
		t.Errorf("empty deltas touched %d steps", res.Bennett.StepsTouched)
	}
}

// swappedRowsEMS builds A0, A1, A2 on n = 12: A0 is diagonally dominant
// (diagonal 4 + U(0,1), two random off-diagonal draws of −0.3·U(0,1) per
// row), A1 is A0 with rows 0 and 1 swapped, and A2 is A1 with 0.75
// added to the last diagonal entry. In one cluster the step to A1 fails
// Bennett's update and is refactorized; the step to A2 updates the
// refactorized factors.
func swappedRowsEMS() *graph.EMS {
	rng := xrand.New(77)
	const n = 12
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 4 + rng.Float64()})
		for k := 0; k < 2; k++ {
			if j := rng.Intn(n); j != i {
				es = append(es, sparse.Entry{Row: i, Col: j, Val: -0.3 * rng.Float64()})
			}
		}
	}
	mk := func(swap bool, extra float64) *sparse.CSR {
		c := sparse.NewCOO(n)
		for _, e := range es {
			if swap && e.Row < 2 {
				e.Row = 1 - e.Row
			}
			c.Add(e.Row, e.Col, e.Val)
		}
		c.Add(n-1, n-1, extra)
		return c.ToCSR()
	}
	return &graph.EMS{Matrices: []*sparse.CSR{mk(false, 0), mk(true, 0), mk(true, 0.75)}}
}

// TestRefactorizedSolverStaysBound holds, on every snapshot of a run
// that refactorizes, the support-list SolveRHS of every source against
// Solve bit for bit. A caller may keep a solver it was handed, so the
// engine must never point one it handed out at another container: a
// refactorization that replaces the container hands out a new solver.
func TestRefactorizedSolverStaysBound(t *testing.T) {
	ems := swappedRowsEMS()
	n := ems.N()
	var ws lu.SolveWorkspace
	for _, alg := range []Algorithm{INC, CINC} {
		bound := map[*lu.Solver]lu.Factors{}
		res, err := Run(ems, alg, Options{
			Alpha: 0, // one cluster: every step is an update
			OnFactors: func(i int, s *lu.Solver) {
				if f, ok := bound[s]; ok && f != s.F {
					t.Errorf("%s snapshot %d: a solver handed out earlier now holds other factors", alg, i)
				}
				bound[s] = s.F
				for src := 0; src < n; src++ {
					want := s.Solve(sparse.Basis(n, src, 1))
					rhs := lu.RHS{Idx: []int{src}, Val: []float64{1}}
					s.SolveRHS(&rhs, &ws)
					got := rhs.X
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("%s snapshot %d source %d: SolveRHS x[%d] = %v, Solve %v", alg, i, src, k, got[k], want[k])
						}
					}
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Refactorizations != 1 {
			t.Fatalf("%s: %d refactorizations, want exactly 1", alg, res.Refactorizations)
		}
	}
}
