package bench

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// scalingDatasets sizes the synthetic sequence so each cluster carries
// enough ordering + full-LU work for the pool to amortize scheduling
// overhead, with far more clusters than workers.
func scalingDatasets(t *testing.T) Datasets {
	t.Helper()
	d, err := DatasetsFor(gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	// High churn keeps clusters short at alpha=0.95, so the plan is
	// dominated by per-cluster Markowitz + full LU — the part that
	// parallelizes — rather than by one long Bennett chain.
	d.Synthetic.V = 400
	d.Synthetic.EP = 3600
	d.Synthetic.T = 24
	d.Synthetic.DeltaE = 80
	return d
}

// TestParallelCLUDESpeedup is the engine's scaling regression: with a
// 4-worker pool CLUDE must finish the synthetic sequence at least
// 1.5x faster than the sequential engine. Requires real hardware
// parallelism, so it skips on small machines.
func TestParallelCLUDESpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure a 4-worker speedup, have %d", runtime.NumCPU())
	}
	if raceEnabled {
		t.Skip("race-detector synchronization serializes the pool; measure without -race")
	}
	s, err := CLUDESpeedup(scalingDatasets(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("CLUDE 4-worker speedup: %.2fx (NumCPU=%d)", s, runtime.NumCPU())
	// NumCPU counts logical CPUs: 4 logical is often 2 physical cores
	// with SMT, where 4 CPU-bound workers cannot reach the full
	// threshold. Hold the hard bound where 4 physical cores are
	// certain, and a looser sanity bound on SMT-ambiguous machines.
	switch {
	case runtime.NumCPU() >= 8 && s < 1.5:
		t.Errorf("CLUDE speedup with 4 workers = %.2fx, want > 1.5x", s)
	case s < 1.15:
		t.Errorf("CLUDE speedup with 4 workers = %.2fx, want > 1.15x even with SMT", s)
	}
}

// TestCLUDESpeedupRunsAnywhere exercises the measurement path itself
// (both engine modes) without asserting a ratio, so single-core boxes
// still cover it.
func TestCLUDESpeedupRunsAnywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := small(t)
	s, err := CLUDESpeedup(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("speedup must be positive, got %v", s)
	}
}
