package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gen"
)

// This file is the machine-readable side of the harness: the same
// tables Fprint renders for humans, persisted as JSON so CI can upload
// them as artifacts and the perf trajectory accumulates per PR.

// RunResult is one experiment's outcome in a Report. AllocsPerOp and
// BytesPerOp are the heap-allocation deltas of one experiment
// execution (see RunMeasured), so the per-PR artifacts carry the
// allocation trajectory next to the timing one.
type RunResult struct {
	Experiment  string   `json:"experiment"`
	Paper       string   `json:"paper,omitempty"`
	Scale       string   `json:"scale"`
	Workers     int      `json:"workers,omitempty"`
	ElapsedMS   float64  `json:"elapsed_ms,omitempty"`
	AllocsPerOp uint64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  uint64   `json:"bytes_per_op,omitempty"`
	Tables      []*Table `json:"tables"`
}

// Report is the top-level JSON document WriteJSON persists.
type Report struct {
	CreatedAt  string      `json:"created_at"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Runs       []RunResult `json:"runs"`
}

// NewReport stamps an empty report with the environment.
func NewReport() *Report {
	return &Report{
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Add appends one experiment's tables to the report. allocs and bytes
// are the run's heap-allocation deltas (0 when not measured).
func (r *Report) Add(e Experiment, scale gen.Scale, workers int, elapsed time.Duration, allocs, bytes uint64, tables []*Table) {
	r.Runs = append(r.Runs, RunResult{
		Experiment:  e.ID,
		Paper:       e.Paper,
		Scale:       string(scale),
		Workers:     workers,
		ElapsedMS:   float64(elapsed.Microseconds()) / 1000,
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		Tables:      tables,
	})
}

// RunMeasured executes one experiment while recording wall time and
// the goroutine-global heap-allocation deltas (objects and bytes) of
// the run — the numbers Add persists. A GC pass before the baseline
// read keeps the byte delta from charging the previous run's garbage.
func RunMeasured(e Experiment, d Datasets) (tables []*Table, elapsed time.Duration, allocs, bytes uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	tables, err = e.Run(d)
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	return tables, elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// WriteJSON persists the report to path, creating any missing parent
// directories (a local `cludebench -json` or BENCH_JSON_DIR run must
// not require pre-creating the artifact directory), via a temp file +
// rename so a crashed writer never leaves a torn artifact for the CI
// upload step to grab.
func WriteJSON(path string, r *Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// ArtifactPath names the per-experiment artifact file the CI bench job
// uploads: BENCH_<id>.json under dir.
func ArtifactPath(dir, id string) string {
	return filepath.Join(dir, "BENCH_"+id+".json")
}
