package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestKillPointRecoveryExact is the acceptance property: for every kill
// point in a batch sequence, abandoning the
// process state (as SIGKILL would) and recovering from disk must yield
// a stream whose complete exported state — factors, graph, tracker,
// counters — is identical to the abandoned one's, and whose future
// evolution matches an uninterrupted run bit for bit. The batches grow
// the cluster union both within the kept-order bound and past it, and
// the WAL tails of the kill points at 4, 7 and 10 replay kept-order
// growths: the rule's decisions must come out the same from the
// checkpointed reference fill.
func TestKillPointRecoveryExact(t *testing.T) {
	const n = 34
	rng := xrand.New(23)
	g0 := randomGraph(n, 40, rng)
	batches := randomBatches(n, 10, 5, rng)
	derive := graph.RWRMatrix(0.85)

	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: derive}

	// Uninterrupted reference run: the probe solution per version, and
	// the kept-order growths after each batch.
	ref := streamAfter(t, g0, nil)
	kept := make([]int, len(batches))
	for i, b := range batches {
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		kept[i] = ref.Stats().KeptGrowths
	}
	for _, kill := range []int{4, 7, len(batches)} {
		if kept[kill-1] == kept[kill/2] {
			t.Fatalf("kill=%d: no kept-order growth in the WAL tail after the checkpoint at batch %d", kill, kill/2)
		}
	}
	if ref.Stats().StructRebuilds == 0 {
		t.Fatal("no batch grew the union past the kept-order bound")
	}
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
			t.Fatalf("kill=%d: OpenStream: %v", kill, err)
		}
		if info.Recovered {
			t.Fatalf("kill=%d: fresh directory reported a recovery", kill)
		}
		for i := 0; i < kill; i++ {
			if _, err := s1.Apply(batches[i]); err != nil {
				t.Fatalf("kill=%d: batch %d: %v", kill, i, err)
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
			t.Fatalf("kill=%d: reopen: %v", kill, err)
		}
		if !rinfo.Recovered {
			t.Fatalf("kill=%d: reopen cold-started over an existing snapshot", kill)
		}
		if rinfo.Version != wantState.Version {
			t.Fatalf("kill=%d: recovered version %d, want %d", kill, rinfo.Version, wantState.Version)
		}
		gotState, err := s2.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantState, gotState) {
			t.Errorf("kill=%d: recovered state differs from pre-kill state", kill)
		}
		if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
			t.Errorf("kill=%d: recovered solve differs bit-wise from pre-kill solve", kill)
		}
		// The recovered stream must continue exactly like the
		// uninterrupted run.
		for i := kill; i < len(batches); i++ {
			if _, err := s2.Apply(batches[i]); err != nil {
				t.Fatalf("kill=%d: post-recovery batch %d: %v", kill, i, err)
			}
		}
		if got := probe(t, s2, n); !reflect.DeepEqual(refFinal, got) {
			t.Errorf("kill=%d: post-recovery continuation diverged from uninterrupted run", kill)
		}
		finalState, err := s2.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refFinalState, finalState) {
			t.Errorf("kill=%d: final state diverged from uninterrupted run", kill)
		}
		s2.Close()
		if err := st2.Close(); err != nil {
			t.Errorf("kill=%d: store close: %v", kill, err)
		}
	}
}

// TestOpenStreamRecoversVersion2Checkpoint opens a data directory as a
// binary without the kept-order rule leaves it: every checkpoint a
// version 2 CLUD frame, and the WAL truncated through the older one, so
// its first record is past seq 1 and a cold start could not replay it.
// Recovery must load the newest checkpoint, derive its reference fill,
// replay the tail with kept-order growths among it, and reach the
// uninterrupted run's state bit for bit, less the kept growths counted
// before the checkpoint, which a version 2 frame does not carry.
func TestOpenStreamRecoversVersion2Checkpoint(t *testing.T) {
	expectRecoversOldCheckpoint(t, 2)
}

// TestOpenStreamRecoversVersion3Checkpoint is its twin over the data
// directory the kept-order binary before version 4 leaves: version 3
// frames, which carry the kept growths and the reference fill, so
// recovery reaches the uninterrupted run's state bit for bit.
func TestOpenStreamRecoversVersion3Checkpoint(t *testing.T) {
	expectRecoversOldCheckpoint(t, 3)
}

func expectRecoversOldCheckpoint(t *testing.T, version byte) {
	const n = 34
	rng := xrand.New(41)
	g0 := randomGraph(n, 40, rng)
	batches := randomBatches(n, 10, 5, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}

	// The newest checkpoint stands where the container is its cluster's
	// last fresh ordering, as every container of the older binary is,
	// and both a kept-order growth and a growth past the bound follow
	// it, so a reference fill off either way changes a decision.
	ref := streamAfter(t, g0, nil)
	stats := make([]core.StreamStats, len(batches))
	for i, b := range batches {
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		stats[i] = ref.Stats()
	}
	last := stats[len(batches)-1]
	ckpt := -1
	for i := 1; i < len(batches)-1 && ckpt < 0; i++ {
		if stats[i].Fill == stats[i].RefFill && last.KeptGrowths > stats[i].KeptGrowths && last.StructRebuilds > stats[i].StructRebuilds {
			ckpt = i
		}
	}
	if ckpt < 0 {
		t.Fatal("no batch leaves a freshly ordered container with a kept-order growth and a rebuild after it")
	}
	refFinal := probe(t, ref, n)
	want, err := ref.ExportState()
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	if version == 2 {
		want.Stats.KeptGrowths -= stats[ckpt].KeptGrowths
	}

	dir := t.TempDir()
	setSegmentBytes(t, 1)
	opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20}
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := st.OpenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := s1.Apply(b); err != nil {
			t.Fatal(err)
		}
		if i == 0 || i == ckpt {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s1.Close()
	st.wal.Close()
	var first uint64
	if err := st.wal.Replay(0, func(seq uint64, _ []graph.EdgeEvent) error {
		if first == 0 {
			first = seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first <= 1 {
		t.Fatalf("the WAL still starts at seq %d: the checkpoints did not truncate it", first)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2", len(snaps))
	}
	for _, path := range snaps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		state, err := ReadStreamState(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var old bytes.Buffer
		if err := writeOldStreamState(&old, state, version, core.CLUDE); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	s2, info, err := st2.OpenStream(cfg)
	if err != nil {
		t.Fatalf("reopen over version %d checkpoints: %v", version, err)
	}
	defer st2.Close()
	defer s2.Close()
	if !info.Recovered || info.SnapshotsSkipped != 0 || info.SnapshotVersion != uint64(ckpt+1) {
		t.Fatalf("recovery %+v, want the version %d checkpoint at version %d", info, version, ckpt+1)
	}
	if info.ReplayedBatches != len(batches)-1-ckpt || info.ReplayErrors != 0 {
		t.Fatalf("replayed %d batches (%d errors), want %d", info.ReplayedBatches, info.ReplayErrors, len(batches)-1-ckpt)
	}
	if k := s2.Stats().KeptGrowths; k != want.Stats.KeptGrowths {
		t.Fatalf("the WAL tail replayed %d kept-order growths, the live run %d", k, want.Stats.KeptGrowths)
	}
	got, err := s2.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recovery from a version %d checkpoint did not reach the live run's state", version)
	}
	if !reflect.DeepEqual(refFinal, probe(t, s2, n)) {
		t.Errorf("recovery from a version %d checkpoint solves differently from the live run", version)
	}
}

// TestRecoverFallsBackOnCorruptSnapshot pins the satellite requirement:
// a corrupt newest snapshot must not abort recovery — the previous
// snapshot plus a longer WAL replay reaches the same state. The newest
// is corrupted two ways across two recoveries: truncated, then at full
// length with one byte flipped, so its checksum fails.
func TestRecoverFallsBackOnCorruptSnapshot(t *testing.T) {
	const n = 30
	rng := xrand.New(29)
	g0 := randomGraph(n, 34, rng)
	batches := randomBatches(n, 8, 5, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}

	dir := t.TempDir()
	setKeepSnapshots(t, 4)
	opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20}
	st, err := Open(dir, opt)
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

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshots on disk, got %d", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x40

	for _, leg := range []struct {
		name string
		data []byte
	}{
		{"truncated", data[:len(data)/3]},
		{"byte flip", flipped},
	} {
		if err := os.WriteFile(newest, leg.data, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		s2, info, err := st2.OpenStream(cfg)
		if err != nil {
			t.Fatalf("%s: reopen with corrupt newest snapshot: %v", leg.name, err)
		}
		if info.SnapshotsSkipped != 1 {
			t.Errorf("%s: SnapshotsSkipped = %d, want 1", leg.name, info.SnapshotsSkipped)
		}
		if !info.Recovered {
			t.Errorf("%s: fallback recovery not reported as recovered", leg.name)
		}
		gotState, err := s2.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantState, gotState) {
			t.Errorf("%s: fallback recovery did not reach the pre-kill state", leg.name)
		}
		if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: fallback recovery solve differs from pre-kill solve", leg.name)
		}
		// Killed again: a clean Close would checkpoint the recovered
		// state, and the next leg must find the same directory.
		s2.Close()
		st2.wal.Close()
	}
}

// TestOpenStreamRefusesListFactors: a checkpoint whose factor kind is
// 1, the linked-list kind the format no longer has, is corrupt, so
// recovery skips it for the one before.
func TestOpenStreamRefusesListFactors(t *testing.T) {
	const n = 24
	rng := xrand.New(37)
	g0 := randomGraph(n, 28, rng)
	batches := randomBatches(n, 4, 4, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}
	dir := t.TempDir()
	setKeepSnapshots(t, 4)
	opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20}
	st, err := Open(dir, opt)
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
	newestState, err := s1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := probe(t, s1, n)
	s1.Close()
	st.wal.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("want the initial and the newest snapshot on disk, got %d", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, withByte(t, data, stateFactorKindAt(t, newestState), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, info, err := st2.OpenStream(cfg)
	if err != nil {
		t.Fatalf("reopen with a kind-1 newest snapshot: %v", err)
	}
	defer s2.Close()
	if info.SnapshotsSkipped != 1 || !info.Recovered || info.SnapshotVersion != 0 || info.ReplayedBatches != len(batches) {
		t.Errorf("recovery %+v: want the kind-1 snapshot skipped and every batch replayed over version 0", info)
	}
	if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
		t.Error("recovery past the kind-1 snapshot solves differently from the pre-kill stream")
	}
}

// TestOpenStreamRefusesForeignCheckpoint: a checkpoint that names any
// algorithm but CLUDE — a BF stream's, as an older binary wrote it —
// fails the boot with an error naming that algorithm. It is not
// corrupt, so recovery neither skips it for the CLUDE checkpoint before
// it nor cold-starts over it.
func TestOpenStreamRefusesForeignCheckpoint(t *testing.T) {
	const n = 24
	rng := xrand.New(37)
	g0 := randomGraph(n, 28, rng)
	batches := randomBatches(n, 4, 4, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}
	dir := t.TempDir()
	setKeepSnapshots(t, 4)
	opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20}
	st, err := Open(dir, opt)
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
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	state, err := s1.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	st.wal.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 2 {
		t.Fatalf("want the initial and the newest snapshot on disk, got %d", len(snaps))
	}
	var buf bytes.Buffer
	if err := writeOldStreamState(&buf, state, 2, core.BF); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[1], buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(snaps))
	for i, p := range snaps {
		if before[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, info, err := st2.OpenStream(cfg)
	if err == nil {
		s2.Close()
		t.Fatalf("OpenStream over a BF checkpoint booted at version %d", info.Version)
	}
	if !strings.Contains(err.Error(), "BF") {
		t.Errorf("OpenStream over a BF checkpoint: %v, want an error naming BF", err)
	}
	if info.SnapshotsSkipped != 0 || info.Recovered {
		t.Errorf("recovery %+v: the BF checkpoint was skipped or an older one restored", info)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if !reflect.DeepEqual(snaps, after) {
		t.Fatalf("snapshots %v after the refused boot, want %v", after, snaps)
	}
	for i, p := range after {
		if data, err := os.ReadFile(p); err != nil || !bytes.Equal(data, before[i]) {
			t.Errorf("%s changed under the refused boot (%v)", p, err)
		}
	}
}

// TestOpenStreamRefusesUnsupportedVersion: an intact checkpoint at a
// format version this binary does not read fails the boot with an error
// naming the version, and leaves the directory as it was; the same
// version byte without a resealed checksum is a damaged frame, skipped
// for the checkpoint before it.
func TestOpenStreamRefusesUnsupportedVersion(t *testing.T) {
	const n = 24
	future := byte(stateVersion + 1)
	setKeepSnapshots(t, 4)
	for _, reseal := range []bool{true, false} {
		rng := xrand.New(41)
		g0 := randomGraph(n, 28, rng)
		cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}
		dir := t.TempDir()
		opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20}
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		s1, _, err := st.OpenStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, evs := range randomBatches(n, 4, 4, rng) {
			if _, err := s1.Apply(evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		want := probe(t, s1, n)
		s1.Close()
		st.wal.Close()

		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if len(snaps) != 2 {
			t.Fatalf("want the initial and the newest snapshot on disk, got %d", len(snaps))
		}
		data, err := os.ReadFile(snaps[1])
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Clone(data[:len(data)-4])
		payload[len(stateMagic)] = future
		trailer := data[len(data)-4:]
		if reseal {
			trailer = binary.LittleEndian.AppendUint32(nil, crc32.Checksum(payload, castagnoli))
		}
		planted := append(payload, trailer...)
		if err := os.WriteFile(snaps[1], planted, 0o644); err != nil {
			t.Fatal(err)
		}

		st2, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		s2, info, err := st2.OpenStream(cfg)
		if reseal {
			if err == nil {
				s2.Close()
				st2.Close()
				t.Fatalf("OpenStream over an intact version %d checkpoint booted at version %d", future, info.Version)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("format version %d", future)) {
				t.Errorf("OpenStream over a version %d checkpoint: %v, want an error naming the version", future, err)
			}
			if info.SnapshotsSkipped != 0 || info.Recovered {
				t.Errorf("recovery %+v: the version %d checkpoint was skipped or an older one restored", info, future)
			}
			if after, err := os.ReadFile(snaps[1]); err != nil || !bytes.Equal(after, planted) {
				t.Errorf("%s changed under the refused boot (%v)", snaps[1], err)
			}
			st2.Close()
			continue
		}
		if err != nil {
			t.Fatalf("OpenStream over a checkpoint whose version byte was flipped: %v", err)
		}
		if info.SnapshotsSkipped != 1 || !info.Recovered {
			t.Errorf("recovery %+v, want the damaged checkpoint skipped and the one before restored", info)
		}
		if got := probe(t, s2, n); !reflect.DeepEqual(want, got) {
			t.Error("recovery past the damaged checkpoint solves differently from the live run")
		}
		s2.Close()
		st2.Close()
	}
}

// TestOpenStreamColdStartReplaysPreSnapshotWAL covers the crash window
// before the first checkpoint exists: WAL records over a fresh stream
// must still be replayed exactly.
func TestOpenStreamColdStartReplaysPreSnapshotWAL(t *testing.T) {
	const n = 22
	rng := xrand.New(31)
	g0 := randomGraph(n, 26, rng)
	batches := randomBatches(n, 4, 4, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}

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
// history sidecar holds it — for version 0 inside OpenStream and for
// every batch after. (The snapshot cadence, called last, keeps no count
// to observe; TestSnapshotCadenceByVersion pins where it lands.)
func TestOpenStreamPublishOrder(t *testing.T) {
	const n = 24
	rng := xrand.New(37)
	g0 := randomGraph(n, 28, rng)
	batches := randomBatches(n, 4, 4, rng)

	st, err := Open(t.TempDir(), Options{Sync: SyncNone, SnapshotEvery: 1 << 20, History: true})
	if err != nil {
		t.Fatal(err)
	}
	// counts reads what the sidecar has seen so far.
	counts := func() int64 {
		appended, _ := st.hist.onDisk()
		return appended
	}
	published := 0
	cfg := core.StreamConfig{
		Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85),
		OnPublish: func(_ *lu.Solver, rec bennett.VersionRecord) {
			if rec.Version != uint64(published) {
				t.Errorf("hook saw version %d, want %d", rec.Version, published)
			}
			if appended := counts(); appended != int64(published) {
				t.Errorf("version %d: sidecar holds %d records before the caller's hook ran, want %d",
					rec.Version, appended, published)
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
		if appended := counts(); published != i+1 || appended != int64(i+1) {
			t.Fatalf("after version %d: hook ran %d times, sidecar holds %d records, want %d each",
				i, published, appended, i+1)
		}
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCadenceByVersion pins the checkpoint cadence: across a
// cold start and two restarts at kill points between multiples, the
// background snapshotter writes checkpoints only at versions that are
// multiples of SnapshotEvery — the cold start's version 0 and the final
// one Close writes aside — however many versions each restart
// re-publishes.
func TestSnapshotCadenceByVersion(t *testing.T) {
	const n, every = 30, 4
	rng := xrand.New(43)
	g0 := randomGraph(n, 34, rng)
	batches := randomBatches(n, 23, 4, rng)
	cfg := core.StreamConfig{Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}
	setKeepSnapshots(t, 100)
	opt := Options{Sync: SyncNone, SnapshotEvery: every}
	dir := t.TempDir()

	for run, kill := range []int{7, 14, len(batches)} {
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := st.OpenStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := int(s.Seq()); i < kill; i++ {
			written := st.Stats().SnapshotsWritten
			v, err := s.Apply(batches[i])
			if err != nil {
				t.Fatal(err)
			}
			// Let a due checkpoint land before the next batch, so it holds
			// exactly the version that made it due.
			for deadline := time.Now().Add(10 * time.Second); v%every == 0 && st.Stats().SnapshotsWritten == written; {
				if time.Now().After(deadline) {
					t.Fatalf("run %d: no checkpoint for version %d", run, v)
				}
				time.Sleep(time.Millisecond)
			}
		}
		s.Close()
		if run < 2 {
			// SIGKILL: stop the snapshotter without a final checkpoint.
			close(st.done)
			st.wg.Wait()
			st.wal.Close()
			continue
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	var versions []uint64
	for _, path := range snaps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		state, err := ReadStreamState(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, state.Version)
	}
	want := []uint64{0, 4, 8, 12, 16, 20, uint64(len(batches))}
	if !reflect.DeepEqual(versions, want) {
		t.Fatalf("checkpoints at versions %v, want %v", versions, want)
	}
}
