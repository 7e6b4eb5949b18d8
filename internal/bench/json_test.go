package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestWriteJSONCreatesMissingDir pins the contract that local -json
// runs (and BENCH_JSON_DIR pointing at a fresh path) work without
// pre-creating the artifact directory: deeply missing directories are
// created, and a bare relative filename writes into the working
// directory.
func TestWriteJSONCreatesMissingDir(t *testing.T) {
	base := t.TempDir()
	deep := ArtifactPath(filepath.Join(base, "a", "b", "c"), "history")
	if err := WriteJSON(deep, NewReport()); err != nil {
		t.Fatalf("WriteJSON into missing nested dir: %v", err)
	}
	if _, err := os.Stat(deep); err != nil {
		t.Fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(base); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := WriteJSON("bare.json", NewReport()); err != nil {
		t.Fatalf("WriteJSON with a bare relative path: %v", err)
	}
	if _, err := os.Stat(filepath.Join(base, "bare.json")); err != nil {
		t.Fatal(err)
	}
}

// TestWriteJSONRoundTrip persists a report and reads it back.
func TestWriteJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ArtifactPath(filepath.Join(dir, "nested"), "fig7")
	if filepath.Base(path) != "BENCH_fig7.json" {
		t.Fatalf("artifact name %q", filepath.Base(path))
	}

	r := NewReport()
	e, err := Find("fig7")
	if err != nil {
		t.Fatal(err)
	}
	r.Add(e, gen.Tiny, 1, 1500*time.Microsecond, 42, 4096, []*Table{{
		Title:  "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}})
	if err := WriteJSON(path, r); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 1 || back.Runs[0].Experiment != "fig7" || back.Runs[0].Scale != "tiny" {
		t.Fatalf("round trip lost run metadata: %+v", back.Runs)
	}
	if back.Runs[0].ElapsedMS != 1.5 {
		t.Fatalf("elapsed %v, want 1.5", back.Runs[0].ElapsedMS)
	}
	if back.Runs[0].AllocsPerOp != 42 || back.Runs[0].BytesPerOp != 4096 {
		t.Fatalf("allocation record lost: %+v", back.Runs[0])
	}
	if len(back.Runs[0].Tables) != 1 || back.Runs[0].Tables[0].Rows[0][1] != "2" {
		t.Fatalf("round trip lost table data: %+v", back.Runs[0].Tables)
	}
	if back.GoVersion == "" || back.CreatedAt == "" {
		t.Fatal("environment stamp missing")
	}
}
