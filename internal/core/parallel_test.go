package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
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

// TestParallelSingularSurfaced propagates a mid-cluster factorization
// failure out of the pool without hanging the other workers.
func TestParallelSingularSurfaced(t *testing.T) {
	_, err := Run(singularEMS(), BF, Options{Workers: 3})
	if err == nil {
		t.Fatal("BF accepted a singular matrix under a worker pool")
	}
}

// singularAtEMS builds T dominant matrices whose pattern gains one
// off-diagonal entry every four steps, so the clustered algorithms plan
// several clusters, except that matrix k repeats one row: exactly
// singular, so its decomposition or update fails.
func singularAtEMS(T, k int) *graph.EMS {
	rng := xrand.New(5)
	const n = 10
	ems := &graph.EMS{}
	for i := range T {
		c := sparse.NewCOO(n)
		for r := range n {
			if i == k && (r == 3 || r == 4) {
				c.Add(r, 3, 1)
				c.Add(r, 4, 1)
				continue
			}
			c.Add(r, r, 3+rng.Float64())
			if r > 0 {
				c.Add(r, r-1, -0.5)
			}
		}
		for b := range i / 4 {
			c.Add(b, n-1-b, 0.25)
		}
		ems.Matrices = append(ems.Matrices, c.ToCSR())
	}
	return ems
}

// TestParallelFailureEndsCallbacks runs a sequence whose middle member
// is singular under a recording OnFactors: Run returns the error naming
// that matrix, and the callbacks that fired are a contiguous, in-order
// prefix that ends before it, for every worker count.
func TestParallelFailureEndsCallbacks(t *testing.T) {
	const T, k = 16, 9
	ems := singularAtEMS(T, k)
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		for _, workers := range []int{1, 2, 4} {
			var seen []int
			_, err := Run(ems, alg, Options{Alpha: 0.95, Workers: workers, OnFactors: func(i int, _ *lu.Solver) {
				seen = append(seen, i)
			}})
			if err == nil {
				t.Fatalf("%s w=%d: a singular matrix %d was accepted", alg, workers, k)
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("matrix %d)", k)) && !strings.Contains(msg, fmt.Sprintf("matrix %d:", k)) {
				t.Errorf("%s w=%d: error %q does not name matrix %d", alg, workers, msg, k)
			}
			prefix := len(seen) <= k
			for j, i := range seen {
				prefix = prefix && i == j
			}
			if !prefix {
				t.Errorf("%s w=%d: callbacks %v, want 0..j-1 for some j <= %d", alg, workers, seen, k)
			}
		}
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
