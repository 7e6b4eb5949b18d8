package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// retainEMS builds a small synthetic EMS for the retention tests.
func retainEMS(t *testing.T) *graph.EMS {
	t.Helper()
	egs, err := gen.Synthetic(gen.SyntheticConfig{
		V: 120, EP: 1000, D: 5, K: 4, DeltaE: 8, T: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return graph.DeriveEMS(egs, graph.RWRMatrix(0.85))
}

// TestRetainFactorsOutliveRun pins a clone of every snapshot's solver,
// made inside the callback, and verifies, after the run has finished (and the
// engine's in-place updates have long overwritten the live factors),
// that each retained solver still solves its own snapshot's system.
func TestRetainFactorsOutliveRun(t *testing.T) {
	ems := retainEMS(t)
	for _, workers := range []int{1, 4} {
		for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
			solvers := make([]*lu.Solver, ems.Len())
			_, err := Run(ems, alg, Options{
				Alpha:     0.95,
				Workers:   workers,
				OnFactors: func(i int, s *lu.Solver) { solvers[i] = s.Clone() },
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, workers, err)
			}
			n := ems.N()
			for i, s := range solvers {
				if s == nil {
					t.Fatalf("%s workers=%d: snapshot %d not emitted", alg, workers, i)
				}
				b := sparse.Basis(n, i%n, 0.15)
				x := s.Solve(b)
				// Residual against the snapshot's own matrix.
				ax := ems.Matrices[i].MulVec(x)
				for j := range b {
					if d := ax[j] - b[j]; d > 1e-8 || d < -1e-8 {
						t.Fatalf("%s workers=%d snapshot %d: residual %g at row %d",
							alg, workers, i, d, j)
					}
				}
			}
		}
	}
}

// TestRetainFactorsClonesAreIndependent checks that a retained solver's
// answer does not drift as the engine updates the live factors for
// later cluster members: the solve at pin time and the solve after the
// run are bit-identical.
func TestRetainFactorsClonesAreIndependent(t *testing.T) {
	ems := retainEMS(t)
	n := ems.N()
	b := sparse.Basis(n, 7, 0.15)
	atPin := make([][]float64, ems.Len())
	solvers := make([]*lu.Solver, ems.Len())
	_, err := Run(ems, CLUDE, Options{
		Alpha: 0.95,
		OnFactors: func(i int, s *lu.Solver) {
			atPin[i] = s.Solve(b)
			solvers[i] = s.Clone()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range solvers {
		after := s.Solve(b)
		for j := range after {
			if after[j] != atPin[i][j] {
				t.Fatalf("snapshot %d: retained solve drifted at %d: %v vs %v",
					i, j, after[j], atPin[i][j])
			}
		}
	}
}
