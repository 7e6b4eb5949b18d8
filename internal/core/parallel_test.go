package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// TestParallelEmissionOrder is the engine's core contract: OnFactors
// fires exactly once per snapshot, strictly in order 0..T-1, for every
// worker count — including pools larger than the cluster count.
func TestParallelEmissionOrder(t *testing.T) {
	ems := smallEMS(t)
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		for _, workers := range []int{1, 2, 4, 16} {
			var seen []int
			_, err := Run(ems, alg, Options{
				Alpha:   0.93,
				Workers: workers,
				OnFactors: func(i int, s *lu.Solver) {
					seen = append(seen, i)
					if s == nil || s.F == nil {
						t.Errorf("%s w=%d: nil solver at %d", alg, workers, i)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s w=%d: %v", alg, workers, err)
			}
			if len(seen) != ems.Len() {
				t.Fatalf("%s w=%d: %d callbacks, want %d", alg, workers, len(seen), ems.Len())
			}
			for k, v := range seen {
				if v != k {
					t.Fatalf("%s w=%d: out-of-order emissions %v", alg, workers, seen)
				}
			}
		}
	}
}

// TestParallelSolutionsCorrect runs the full solver check through the
// parallel path: every streamed solver must solve its snapshot.
func TestParallelSolutionsCorrect(t *testing.T) {
	ems := smallEMS(t)
	n := ems.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(n)
	}
	for _, alg := range []Algorithm{BF, CINC, CLUDE} {
		_, err := Run(ems, alg, Options{
			Alpha:   0.9,
			Workers: 4,
			OnFactors: func(i int, s *lu.Solver) {
				x := s.Solve(b)
				r := ems.Matrices[i].MulVec(x)
				if d := sparse.NormInfDiff(r, b); d > 1e-8 {
					t.Errorf("%s: matrix %d residual %g", alg, i, d)
				}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

// TestParallelMatchesSequential checks that worker count is invisible
// in the numeric and structural outputs: clusters, structure sizes,
// SSP sizes, Bennett stats and refactorization counts are all
// scheduling-independent.
func TestParallelMatchesSequential(t *testing.T) {
	ems := smallEMS(t)
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		seq, err := Run(ems, alg, Options{Alpha: 0.93, Workers: 1, MeasureQuality: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", alg, err)
		}
		par, err := Run(ems, alg, Options{Alpha: 0.93, Workers: 4, MeasureQuality: true})
		if err != nil {
			t.Fatalf("%s parallel: %v", alg, err)
		}
		if !reflect.DeepEqual(seq.Clusters, par.Clusters) {
			t.Errorf("%s: cluster boundaries differ", alg)
		}
		if !reflect.DeepEqual(seq.StructureSizes, par.StructureSizes) {
			t.Errorf("%s: structure sizes differ: %v vs %v", alg, seq.StructureSizes, par.StructureSizes)
		}
		if !reflect.DeepEqual(seq.SSPSizes, par.SSPSizes) {
			t.Errorf("%s: SSP sizes differ", alg)
		}
		if seq.Bennett != par.Bennett {
			t.Errorf("%s: bennett stats differ: %+v vs %+v", alg, seq.Bennett, par.Bennett)
		}
		if seq.Refactorizations != par.Refactorizations ||
			seq.DynamicInserts != par.DynamicInserts ||
			seq.DynamicScanSteps != par.DynamicScanSteps {
			t.Errorf("%s: counters differ", alg)
		}
	}
}

// TestParallelQCMatchesSequential is the same invariance check for the
// β-clustered variants.
func TestParallelQCMatchesSequential(t *testing.T) {
	ems := symmetricEMS(t)
	star := StarSizes(ems)
	for _, alg := range []Algorithm{CINC, CLUDE} {
		seq, err := RunQC(ems, alg, 0.2, Options{Workers: 1, MeasureQuality: true, StarSizes: star})
		if err != nil {
			t.Fatalf("%s-QC sequential: %v", alg, err)
		}
		par, err := RunQC(ems, alg, 0.2, Options{Workers: 3, MeasureQuality: true, StarSizes: star})
		if err != nil {
			t.Fatalf("%s-QC parallel: %v", alg, err)
		}
		if !reflect.DeepEqual(seq.Clusters, par.Clusters) {
			t.Errorf("%s-QC: cluster boundaries differ", alg)
		}
		if !reflect.DeepEqual(seq.SSPSizes, par.SSPSizes) {
			t.Errorf("%s-QC: SSP sizes differ", alg)
		}
		if !cluster.Partition(par.Clusters, ems.Len()) {
			t.Errorf("%s-QC: clusters do not partition the EMS", alg)
		}
	}
}

// TestCancellationStopsRun cancels mid-stream and expects a prompt,
// deadlock-free return carrying the context error.
func TestCancellationStopsRun(t *testing.T) {
	ems := smallEMS(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Int32
		_, err := Run(ems, CLUDE, Options{
			Alpha:   0.95,
			Workers: workers,
			Context: ctx,
			OnFactors: func(i int, s *lu.Solver) {
				if fired.Add(1) == 2 {
					cancel()
				}
			},
		})
		cancel()
		if err == nil {
			t.Fatalf("w=%d: cancelled run returned nil error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("w=%d: error %v does not wrap context.Canceled", workers, err)
		}
		if got := fired.Load(); got >= int32(ems.Len()) {
			t.Errorf("w=%d: cancellation did not stop emission (%d callbacks)", workers, got)
		}
	}
}

// TestParallelSingularSurfaced propagates a mid-cluster factorization
// failure out of the pool without hanging the other workers.
func TestParallelSingularSurfaced(t *testing.T) {
	_, err := Run(singularEMS(), BF, Options{Workers: 3})
	if err == nil {
		t.Fatal("BF accepted a singular matrix under a worker pool")
	}
}

// TestWorkerCountEdgeCases: pools larger than the job count and
// negative values must behave like sane defaults.
func TestWorkerCountEdgeCases(t *testing.T) {
	ems := smallEMS(t)
	for _, workers := range []int{-1, 0, 1000} {
		res, err := Run(ems, CLUDE, Options{Alpha: 0.95, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !cluster.Partition(res.Clusters, ems.Len()) {
			t.Fatalf("workers=%d: bad cluster partition", workers)
		}
	}
}
