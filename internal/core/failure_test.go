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
