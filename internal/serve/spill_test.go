package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// waitSpilled polls until the background writer has persisted at least
// want snapshots (spill writes are asynchronous — eviction happens on
// the publish path and must not wait on disk).
func waitSpilled(t *testing.T, eng *Engine, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().SnapshotsSpilled < want {
		if time.Now().After(deadline) {
			t.Fatalf("spill writer persisted %d snapshots, want %d", eng.Stats().SnapshotsSpilled, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSpillEvictReload pins more snapshots than the store bound with a
// spill directory configured and asserts that evicted snapshots stay
// queryable — answers bit-identical to an independent cold solve — and
// that the spill counters account for the traffic.
func TestSpillEvictReload(t *testing.T) {
	dir := t.TempDir()
	eng, ems, ref := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 2, SpillDir: dir})
	defer eng.Close()
	T := ems.Len()

	if got := len(eng.Snapshots()); got != 3 {
		t.Fatalf("retained %d snapshots, want 3", got)
	}
	waitSpilled(t, eng, int64(T-3))
	files, _ := filepath.Glob(filepath.Join(dir, "spill-*.snap"))
	if len(files) != T-3 {
		t.Fatalf("spilled %d files, want %d", len(files), T-3)
	}

	// Every snapshot — pinned or spilled — must answer, bit-identical
	// to the cold reference.
	for i := 0; i < T; i++ {
		q := Query{Snapshot: i, Measure: MeasureRWR, Source: 5}
		resp, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		_, want := coldAnswer(q, ref[i])
		if !reflect.DeepEqual(want, resp.Scores) {
			t.Errorf("snapshot %d: spilled answer differs from cold solve", i)
		}
	}
	st := eng.Stats()
	if st.SpillReloads == 0 {
		t.Error("no spill reloads recorded despite cold-snapshot queries")
	}
	if st.SnapshotsSpilled < int64(T-3) {
		t.Errorf("SnapshotsSpilled = %d, want >= %d", st.SnapshotsSpilled, T-3)
	}
	if st.SpillErrors != 0 {
		t.Errorf("SpillErrors = %d, want 0", st.SpillErrors)
	}

	// Reloading pins the snapshot again, so an immediate repeat query
	// is served from memory (and may now hit the cache).
	q := Query{Snapshot: 0, Measure: MeasureRWR, Source: 5}
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("repeat query after reload did not hit the cache")
	}
}

// TestSpillReloadRaceKeysEveryAnswer races spill reloads against one
// another's evictions: with room for one snapshot, goroutines query
// spilled indices round-robin, so a reload is routinely evicted by the
// next before its answer is filed. Every answer must be its own
// index's cold solve bit for bit, and every answer is keyed — a cache
// hit or the miss of the solve that made it — so CacheHits +
// CacheMisses equals the answers given.
func TestSpillReloadRaceKeysEveryAnswer(t *testing.T) {
	eng, ems, ref := pinnedEngine(t, Config{MaxSnapshots: 1, Workers: 2, SpillDir: t.TempDir()})
	defer eng.Close()
	waitSpilled(t, eng, int64(ems.Len()-1))

	const goroutines, perGoroutine, sources = 6, 48, 3
	snaps := []int{0, 1, 2, 3}
	want := make(map[int][][]float64, len(snaps))
	for _, snap := range snaps {
		for u := 0; u < sources; u++ {
			_, scores := coldAnswer(Query{Measure: MeasureRWR, Source: u}, ref[snap])
			want[snap] = append(want[snap], scores)
		}
	}
	var answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				snap, u := snaps[(g+i)%len(snaps)], (g+i/len(snaps))%sources
				resp, err := eng.Query(context.Background(), Query{Snapshot: snap, Measure: MeasureRWR, Source: u})
				if err != nil {
					t.Errorf("snapshot %d source %d: %v", snap, u, err)
					return
				}
				if !reflect.DeepEqual(resp.Scores, want[snap][u]) {
					t.Errorf("snapshot %d source %d: answer differs from its cold solve", snap, u)
					return
				}
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	st := eng.Stats()
	if st.SpillReloads < int64(len(snaps)) {
		t.Fatalf("%d spill reloads: the race never ran", st.SpillReloads)
	}
	if n := answered.Load(); st.CacheHits+st.CacheMisses != n {
		t.Fatalf("%d hits + %d misses != %d answers: an answer was served unkeyed", st.CacheHits, st.CacheMisses, n)
	}
}

// TestSpillSurvivesRestart pins history with one engine, closes it
// (draining the spill writer), and asserts a fresh engine over the same
// directory — the post-restart world — still serves the spilled
// snapshots bit-identically.
func TestSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	eng1, ems, ref := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 1, SpillDir: dir})
	T := ems.Len()
	eng1.Close() // drains pending spill writes

	eng2 := New(Config{MaxSnapshots: 3, Workers: 1, SpillDir: dir, Damping: testDamping})
	defer eng2.Close()
	for i := 0; i < T-3; i++ {
		q := Query{Snapshot: i, Measure: MeasureRWR, Source: 7}
		resp, err := eng2.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("snapshot %d after restart: %v", i, err)
		}
		_, want := coldAnswer(q, ref[i])
		if !reflect.DeepEqual(want, resp.Scores) {
			t.Errorf("snapshot %d after restart: answer differs from cold solve", i)
		}
	}
	if eng2.Stats().SpillReloads == 0 {
		t.Error("restarted engine served no queries from the spill index")
	}
}

// TestSpillRetentionBound pins more history than the spill bound
// (lowered to 3) allows and asserts the oldest spill files are deleted.
func TestSpillRetentionBound(t *testing.T) {
	dir := t.TempDir()
	setSpillKeep(t, 3)
	eng, ems, _ := pinnedEngine(t, Config{MaxSnapshots: 2, Workers: 1, SpillDir: dir})
	defer eng.Close()
	T := ems.Len()
	spillable := T - 2
	waitSpilled(t, eng, int64(spillable))
	deadline := time.Now().Add(5 * time.Second)
	for {
		files, _ := filepath.Glob(filepath.Join(dir, "spill-*.snap"))
		if len(files) <= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention left %d spill files, want <= 3", len(files))
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The newest spilled snapshot must still load; the oldest must 404.
	if _, err := eng.Query(context.Background(), Query{Snapshot: spillable - 1, Measure: MeasureRWR, Source: 1}); err != nil {
		t.Errorf("newest spilled snapshot unreachable: %v", err)
	}
	if _, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 1}); !errors.Is(err, ErrUnknownSnapshot) {
		t.Errorf("retention-evicted snapshot: %v, want ErrUnknownSnapshot", err)
	}
}

// TestSpillDisabledKeepsDropBehavior pins more than the bound without
// a spill dir: evicted snapshots must 404 exactly as before.
func TestSpillDisabledKeepsDropBehavior(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 1})
	defer eng.Close()
	_, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 1})
	if !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("evicted snapshot without spill dir: %v, want ErrUnknownSnapshot", err)
	}
	if got := len(eng.Snapshots()); got != 3 {
		t.Fatalf("retained %d, want 3", got)
	}
}

// TestSpillCorruptFileDegrades corrupts a spill file and asserts the
// engine degrades to ErrUnknownSnapshot with the error counted, rather
// than serving garbage or failing the worker.
func TestSpillCorruptFileDegrades(t *testing.T) {
	dir := t.TempDir()
	eng, ems, _ := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 1, SpillDir: dir})
	defer eng.Close()
	// Wait for the writer to settle so the corruption cannot be
	// overwritten by an in-flight spill (and the pending queue is
	// empty, forcing the disk path).
	waitSpilled(t, eng, int64(ems.Len()-3))
	path := filepath.Join(dir, "spill-0.snap")
	if err := os.WriteFile(path, []byte("CLUS\x01 definitely not a solver"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 1})
	if !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("corrupt spill: %v, want ErrUnknownSnapshot", err)
	}
	if eng.Stats().SpillErrors == 0 {
		t.Error("corrupt spill not counted in SpillErrors")
	}
}

// TestOpenSweepsStaleTemps plants the temp files a kill -9 mid-write
// leaves — one beside the checkpoints, one in the spill directory — and
// asserts that store.Open and New remove them and index exactly the
// files the previous processes wrote.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	spillDir := filepath.Join(dir, "spill")
	plant := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gone := func(path string) {
		t.Helper()
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived the open (%v)", filepath.Base(path), err)
		}
	}

	eng1, ems, _ := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 1, SpillDir: spillDir})
	eng1.Close()
	spilled := eng1.spill.Keys()
	if len(spilled) != ems.Len()-3 {
		t.Fatalf("spilled %v, want %d files", spilled, ems.Len()-3)
	}
	spillTemp := filepath.Join(spillDir, "spill-4242.tmp")
	plant(spillTemp)
	eng2 := New(Config{MaxSnapshots: 3, Workers: 1, SpillDir: spillDir, Damping: testDamping})
	defer eng2.Close()
	gone(spillTemp)
	if got := eng2.spill.Keys(); !reflect.DeepEqual(got, spilled) {
		t.Errorf("restarted engine indexed %v, want %v", got, spilled)
	}
	if _, err := eng2.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 1}); err != nil {
		t.Errorf("spilled snapshot 0 after the sweep: %v", err)
	}

	cfg := core.StreamConfig{
		Alpha:   0.9,
		Initial: graph.New(6, false, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 4}}),
		Derive:  graph.RWRMatrix(testDamping),
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapTemp := filepath.Join(dir, "snap-1234.tmp")
	plant(snapTemp)
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gone(snapTemp)
	s2, info, err := st2.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recovered || info.SnapshotsSkipped != 0 {
		t.Errorf("reopen after the sweep: %+v, want a clean warm restart", info)
	}
	s2.Close()
	st2.Close()
}
