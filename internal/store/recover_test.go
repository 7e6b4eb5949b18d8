package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// probe solves one fixed system on the stream's current factors.
func probe(t *testing.T, s *core.Stream, n int) []float64 {
	t.Helper()
	b := make([]float64, n)
	b[1] = 0.15
	var x []float64
	if !s.View(func(_ uint64, sv *lu.Solver) { x = sv.Solve(b) }) {
		t.Fatal("stream has no published state")
	}
	return x
}

// TestKillPointRecoveryExact is the acceptance property: for every
// strategy and every kill point in a batch sequence, abandoning the
// process state (as SIGKILL would) and recovering from disk must yield
// a stream whose complete exported state — factors, graph, tracker,
// counters — is identical to the abandoned one's, and whose future
// evolution matches an uninterrupted run bit for bit.
func TestKillPointRecoveryExact(t *testing.T) {
	const n = 34
	rng := xrand.New(23)
	g0 := randomGraph(n, 40, rng)
	batches := randomBatches(n, 10, 5, rng)
	derive := graph.RWRMatrix(0.85)

	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		cfg := core.StreamConfig{Algorithm: alg, Alpha: 0.9, Initial: g0, Derive: derive}

		// Uninterrupted reference run: the probe solution per version.
		ref := streamAfter(t, alg, g0, batches)
		refFinal := probe(t, ref, n)
		refFinalState, err := ref.ExportState()
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}

		for _, kill := range []int{0, 1, 4, 7, len(batches)} {
			dir := t.TempDir()
			st, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s1, info, err := st.OpenStream(cfg)
			if err != nil {
				t.Fatalf("%s kill=%d: OpenStream: %v", alg, kill, err)
			}
			if info.Recovered {
				t.Fatalf("%s kill=%d: fresh directory reported a recovery", alg, kill)
			}
			for i := 0; i < kill; i++ {
				if _, err := s1.Apply(batches[i]); err != nil {
					t.Fatalf("%s kill=%d: batch %d: %v", alg, kill, i, err)
				}
				if i == kill/2 {
					// A mid-stream checkpoint, so recovery exercises
					// snapshot + WAL-tail rather than pure replay.
					if err := st.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			wantState, err := s1.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			want := probe(t, s1, n)
			// SIGKILL: no Close, no final snapshot — the disk holds only
			// what the WAL (fsync always) and past checkpoints captured.
			s1.Close()
			st.wal.Close()

			st2, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			s2, rinfo, err := st2.OpenStream(cfg)
			if err != nil {
				t.Fatalf("%s kill=%d: reopen: %v", alg, kill, err)
			}
			if !rinfo.Recovered {
				t.Fatalf("%s kill=%d: reopen cold-started over an existing snapshot", alg, kill)
			}
			if rinfo.Version != wantState.Version {
				t.Fatalf("%s kill=%d: recovered version %d, want %d", alg, kill, rinfo.Version, wantState.Version)
			}
			gotState, err := s2.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantState, gotState) {
				t.Errorf("%s kill=%d: recovered state differs from pre-kill state", alg, kill)
			}
			if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
				t.Errorf("%s kill=%d: recovered solve differs bit-wise from pre-kill solve", alg, kill)
			}
			// The recovered stream must continue exactly like the
			// uninterrupted run.
			for i := kill; i < len(batches); i++ {
				if _, err := s2.Apply(batches[i]); err != nil {
					t.Fatalf("%s kill=%d: post-recovery batch %d: %v", alg, kill, i, err)
				}
			}
			if got := probe(t, s2, n); !reflect.DeepEqual(refFinal, got) {
				t.Errorf("%s kill=%d: post-recovery continuation diverged from uninterrupted run", alg, kill)
			}
			finalState, err := s2.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refFinalState, finalState) {
				t.Errorf("%s kill=%d: final state diverged from uninterrupted run", alg, kill)
			}
			s2.Close()
			if err := st2.Close(); err != nil {
				t.Errorf("%s kill=%d: store close: %v", alg, kill, err)
			}
		}
	}
}

// TestRecoverFallsBackOnCorruptSnapshot pins the satellite requirement:
// a corrupt (truncated) newest snapshot must not abort recovery — the
// previous snapshot plus a longer WAL replay reaches the same state.
func TestRecoverFallsBackOnCorruptSnapshot(t *testing.T) {
	const n = 30
	rng := xrand.New(29)
	g0 := randomGraph(n, 34, rng)
	batches := randomBatches(n, 8, 5, rng)
	cfg := core.StreamConfig{Algorithm: core.CLUDE, Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}

	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20, KeepSnapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := st.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batches {
		if _, err := s1.Apply(evs); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == 5 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantState, err := s1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want := probe(t, s1, n)
	s1.Close()
	st.wal.Close()

	// Corrupt the newest snapshot two different ways across two
	// recoveries: truncation, then a byte flip.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots on disk, got %d", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20, KeepSnapshots: 4})
	if err != nil {
		t.Fatal(err)
	}
	s2, info, err := st2.OpenStream(cfg)
	if err != nil {
		t.Fatalf("reopen with corrupt newest snapshot: %v", err)
	}
	if info.SnapshotsSkipped != 1 {
		t.Errorf("SnapshotsSkipped = %d, want 1", info.SnapshotsSkipped)
	}
	if !info.Recovered {
		t.Error("fallback recovery not reported as recovered")
	}
	gotState, err := s2.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantState, gotState) {
		t.Error("fallback recovery did not reach the pre-kill state")
	}
	if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
		t.Error("fallback recovery solve differs from pre-kill solve")
	}
	s2.Close()
	st2.Close()
}

// TestOpenStreamColdStartReplaysPreSnapshotWAL covers the crash window
// before the first checkpoint exists: WAL records over a fresh stream
// must still be replayed exactly.
func TestOpenStreamColdStartReplaysPreSnapshotWAL(t *testing.T) {
	const n = 22
	rng := xrand.New(31)
	g0 := randomGraph(n, 26, rng)
	batches := randomBatches(n, 4, 4, rng)
	cfg := core.StreamConfig{Algorithm: core.CINC, Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}

	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := st.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range batches {
		if _, err := s1.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	wantState, _ := s1.ExportState()
	s1.Close()
	st.wal.Close()

	// Delete every snapshot: only the initial-snapshot-less WAL path
	// remains (equivalent to a crash before the first checkpoint if the
	// initial snapshot write itself was lost).
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for _, s := range snaps {
		os.Remove(s)
	}

	st2, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s2, info, err := st2.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Error("snapshot-less boot reported recovered")
	}
	if info.ReplayedBatches != len(batches) {
		t.Errorf("replayed %d batches, want %d", info.ReplayedBatches, len(batches))
	}
	gotState, _ := s2.ExportState()
	if !reflect.DeepEqual(wantState, gotState) {
		t.Error("cold-start WAL replay did not reach the pre-kill state")
	}
	s2.Close()
	st2.Close()
}

// TestOpenStreamPublishOrder pins how OpenStream wraps the stream's one
// publish hook: the caller's hook sees a version's record before the
// history sidecar holds it, and the snapshot cadence counts the version
// last — for version 0 inside OpenStream and for every batch after.
func TestOpenStreamPublishOrder(t *testing.T) {
	const n = 24
	rng := xrand.New(37)
	g0 := randomGraph(n, 28, rng)
	batches := randomBatches(n, 4, 4, rng)

	st, err := Open(t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1 << 20, History: true})
	if err != nil {
		t.Fatal(err)
	}
	// counts reads what the sidecar and the cadence have seen so far.
	counts := func() (appended int64, noted uint64) {
		appended, _ = st.hist.Counters()
		st.mu.Lock()
		defer st.mu.Unlock()
		return appended, st.sinceSnap
	}
	published := 0
	cfg := core.StreamConfig{
		Algorithm: core.CLUDE, Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85),
		OnPublish: func(_ *lu.Solver, rec bennett.VersionRecord) {
			if rec.Version != uint64(published) {
				t.Errorf("hook saw version %d, want %d", rec.Version, published)
			}
			if appended, noted := counts(); appended != int64(published) || noted != uint64(published) {
				t.Errorf("version %d: sidecar holds %d records and the cadence counted %d versions before the caller's hook ran, want %d and %d",
					rec.Version, appended, noted, published, published)
			}
			published++
		},
	}
	s, _, err := st.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range append([][]graph.EdgeEvent{nil}, batches...) {
		if i > 0 {
			if _, err := s.Apply(evs); err != nil {
				t.Fatal(err)
			}
		}
		if appended, noted := counts(); published != i+1 || appended != int64(i+1) || noted != uint64(i+1) {
			t.Fatalf("after version %d: hook ran %d times, sidecar holds %d records, cadence counted %d, want %d each",
				i, published, appended, noted, i+1)
		}
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
