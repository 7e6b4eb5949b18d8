package store

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestStoreStageHook pins Options.OnStage: every logged batch observes
// one wal_append, every checkpoint one snapshot (including the initial
// cold-start snapshot and the final one Close writes).
func TestStoreStageHook(t *testing.T) {
	rng := xrand.New(9)
	g0 := randomGraph(24, 30, rng)
	batches := randomBatches(24, 5, 4, rng)

	var mu sync.Mutex
	counts := map[string]int{}
	st, err := Open(t.TempDir(), Options{
		Sync: SyncNone,
		OnStage: func(stage string, d time.Duration) {
			if d < 0 {
				t.Errorf("stage %q: negative duration %v", stage, d)
			}
			mu.Lock()
			counts[stage]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := st.OpenStream(core.StreamConfig{
		Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batches {
		if _, err := stream.Apply(evs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stream.Close()

	mu.Lock()
	defer mu.Unlock()
	if counts["wal_append"] != len(batches) {
		t.Fatalf("wal_append observed %d times, want %d", counts["wal_append"], len(batches))
	}
	// Initial cold-start snapshot + the explicit one + Close's final.
	if counts["snapshot"] != 3 {
		t.Fatalf("snapshot observed %d times, want 3 (all: %v)", counts["snapshot"], counts)
	}
}
