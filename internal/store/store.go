package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
)

// The durability manager: one Store owns a data directory holding
// factor snapshots (snap-<seq>.snap) and the WAL (wal/), wires itself
// into a core.Stream through the LogBatch and OnPublish hooks, writes
// checkpoints in the background, and recovers crashed streams by
// loading the newest valid snapshot and replaying the WAL tail.

// errNoSnapshot is loadLatestState's report of a directory holding no
// usable snapshot: OpenStream cold-starts on it.
var errNoSnapshot = errors.New("store: no usable snapshot")

// Options configures a Store. The zero value is usable: fsync on every
// batch, a snapshot every 64 published versions, two snapshots
// retained.
type Options struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SnapshotEvery is the number of published versions between
	// background checkpoints. <= 0 means 64.
	SnapshotEvery uint64
	// KeepSnapshots is how many snapshots to retain; older ones are
	// deleted and the WAL truncated to the oldest survivor's coverage.
	// < 2 means 2 (the second-newest is the corruption fallback).
	KeepSnapshots int
	// SegmentBytes is the WAL rotation threshold. <= 0 means 4 MiB.
	SegmentBytes int64
	// History enables the delta-record sidecar (history.cluh): every
	// published version's bennett.VersionRecord is appended, and
	// LoadHistory returns the records found at open time so a serving
	// engine can seed its delta-compressed history across restarts.
	// Best-effort durability: append errors are counted, never fatal,
	// and a torn tail only shrinks the materializable window.
	History bool
	// OnStage, when non-nil, receives the duration of each durability
	// stage: "wal_append" per logged batch (durable write + fsync per
	// the sync policy), "snapshot" per checkpoint written, and
	// "compaction" per history-sidecar compaction attempt (fires inside
	// the snapshot stage, so the two overlap). Must be fast and
	// non-blocking — wal_append fires inside the stream's commit path.
	// The hook keeps this package import-clean of any metrics
	// implementation.
	OnStage func(stage string, d time.Duration)
}

// RecoveryInfo describes what OpenStream found and did.
type RecoveryInfo struct {
	// Recovered is true when a snapshot was loaded (warm restart);
	// false means a cold start (empty or snapshot-less directory).
	Recovered bool `json:"recovered"`
	// SnapshotSeq/SnapshotVersion identify the loaded checkpoint.
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	// SnapshotsSkipped counts newer snapshots rejected as corrupt
	// before one loaded.
	SnapshotsSkipped int `json:"snapshots_skipped"`
	// ReplayedBatches is the number of WAL records applied on top of
	// the snapshot; ReplayErrors counts records whose strategy step
	// failed (deterministically, exactly as it did live).
	ReplayedBatches int `json:"replayed_batches"`
	ReplayErrors    int `json:"replay_errors"`
	// Version is the stream's version after recovery completed.
	Version uint64 `json:"version"`
}

// StoreStats is a point-in-time snapshot of the store's counters.
type StoreStats struct {
	Dir                 string       `json:"dir"`
	Sync                string       `json:"sync"`
	WALRecords          int64        `json:"wal_records"`
	WALBytes            int64        `json:"wal_bytes"`
	WALSegments         int          `json:"wal_segments"`
	WALFsyncs           int64        `json:"wal_fsyncs"`
	SnapshotsWritten    int64        `json:"snapshots_written"`
	LastSnapshotSeq     uint64       `json:"last_snapshot_seq"`
	LastSnapshotVersion uint64       `json:"last_snapshot_version"`
	SnapshotErrors      int64        `json:"snapshot_errors"`
	LastSnapshotError   string       `json:"last_snapshot_error,omitempty"`
	HistoryRecords      int64        `json:"history_records,omitempty"`
	HistoryBytes        int64        `json:"history_bytes,omitempty"`
	HistoryErrors       int64        `json:"history_errors,omitempty"`
	HistoryCompactions  int64        `json:"history_compactions,omitempty"`
	Recovery            RecoveryInfo `json:"recovery"`
}

// Store manages the durable state of one stream in one directory.
type Store struct {
	dir  string
	opt  Options
	wal  *WAL
	hist *HistoryFile // nil unless Options.History

	mu            sync.Mutex
	stream        *core.Stream
	sinceSnap     uint64
	lastSnapSeq   uint64
	lastSnapVer   uint64
	snapsWritten  int64
	snapErrors    int64
	lastSnapError string
	histErrors    int64
	recovery      RecoveryInfo

	snapCh    chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
	closeErr  error
}

// Open prepares the data directory (creating it if needed) and opens
// the WAL, discarding any torn tail. It does not touch snapshots;
// OpenStream does.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = 64
	}
	if opt.KeepSnapshots < 2 {
		opt.KeepSnapshots = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal"), opt.Sync, opt.SegmentBytes)
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:    dir,
		opt:    opt,
		wal:    wal,
		snapCh: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if opt.History {
		st.hist, err = OpenHistory(filepath.Join(dir, "history.cluh"))
		if err != nil {
			wal.Close()
			return nil, err
		}
	}
	return st, nil
}

// LoadHistory returns the delta records the history sidecar held when
// the store was opened, oldest first — feed these to the serving
// engine's SeedHistory *before* OpenStream, so WAL replay appends onto
// a seeded window instead of resetting it. Nil without Options.History.
func (st *Store) LoadHistory() []bennett.VersionRecord {
	if st.hist == nil {
		return nil
	}
	return st.hist.LoadHistory()
}

// Dir returns the store's data directory.
func (st *Store) Dir() string { return st.dir }

// TrimHistory records the serving layer's history retention floor (see
// serve.Engine.OnHistoryTrim): sidecar records below it can never be
// replayed again. Non-blocking — it only stores the floor; the actual
// rewrite runs with the snapshot cycle, off the publish path. No-op
// without Options.History.
func (st *Store) TrimHistory(below uint64) {
	if st.hist == nil {
		return
	}
	st.hist.SetFloor(below)
}

// LogBatch is the core.StreamConfig.LogBatch hook: it appends the
// batch to the WAL, durable per the sync policy, before the stream
// mutates any state.
func (st *Store) LogBatch(seq uint64, events []graph.EdgeEvent) error {
	if st.opt.OnStage == nil {
		return st.wal.Append(seq, events)
	}
	t0 := time.Now()
	err := st.wal.Append(seq, events)
	st.opt.OnStage("wal_append", time.Since(t0))
	return err
}

// OpenStream boots the stream against the directory: when a usable
// snapshot exists the stream is restored from it and the WAL tail is
// replayed through the normal commit path (warm restart, bit-identical
// to the uninterrupted run); otherwise a fresh stream is created from
// cfg and any stray WAL records from a pre-first-snapshot crash are
// replayed on top of version 0. Either way the store's hooks are wired
// in (cfg.LogBatch is overwritten; cfg.OnPublish is wrapped) and the
// background snapshotter starts. The returned stream is live and
// already attached to the store — callers use it exactly like one from
// core.NewStream.
func (st *Store) OpenStream(cfg core.StreamConfig) (*core.Stream, RecoveryInfo, error) {
	var info RecoveryInfo
	cfg.LogBatch = st.LogBatch
	// One publish hook, in this order: the caller's first (the serving
	// engine must see the record before anyone can query the version),
	// then the history sidecar (its own version guard absorbs WAL-replay
	// re-fires), then the snapshot cadence.
	userPublish := cfg.OnPublish
	cfg.OnPublish = func(s *lu.Solver, rec bennett.VersionRecord) {
		if userPublish != nil {
			userPublish(s, rec)
		}
		if st.hist != nil {
			if err := st.hist.Append(rec); err != nil {
				st.mu.Lock()
				st.histErrors++
				st.mu.Unlock()
			}
		}
		st.notePublish()
	}

	var stream *core.Stream
	state, skipped, err := st.loadLatestState()
	info.SnapshotsSkipped = skipped
	switch {
	case err == nil:
		stream, err = core.RestoreStream(cfg, state)
		if err != nil {
			return nil, info, fmt.Errorf("store: restore snapshot seq %d: %w", state.Seq, err)
		}
		info.Recovered = true
		info.SnapshotSeq = state.Seq
		info.SnapshotVersion = state.Version
	case errors.Is(err, errNoSnapshot):
		stream, err = core.NewStream(cfg)
		if err != nil {
			return nil, info, err
		}
	default:
		return nil, info, err
	}

	// Replay the WAL tail through the normal commit path. Batches whose
	// strategy step failed live fail identically here (and are counted,
	// not fatal); a replay gap means the directory is damaged beyond
	// the WAL's torn-tail model and is surfaced as an error.
	replayErr := st.wal.Replay(stream.Seq(), func(seq uint64, events []graph.EdgeEvent) error {
		if _, err := stream.ReplayBatch(seq, events); err != nil {
			if errors.Is(err, core.ErrReplayGap) || errors.Is(err, core.ErrStreamClosed) {
				return err
			}
			info.ReplayErrors++
		}
		info.ReplayedBatches++
		return nil
	})
	if replayErr != nil {
		return nil, info, fmt.Errorf("store: WAL replay: %w", replayErr)
	}
	info.Version = stream.Version()

	st.mu.Lock()
	st.stream = stream
	st.recovery = info
	st.mu.Unlock()

	// A cold start has nothing durable yet: write the initial snapshot
	// synchronously so recovery always has a floor to stand on.
	if !info.Recovered {
		if err := st.Snapshot(); err != nil {
			return nil, info, fmt.Errorf("store: initial snapshot: %w", err)
		}
	}
	st.startOnce.Do(func() {
		st.wg.Add(1)
		go st.snapshotLoop()
	})
	return stream, info, nil
}

// notePublish counts published versions and pokes the background
// snapshotter every SnapshotEvery-th one. Called under the stream's
// write lock, so it must not block.
func (st *Store) notePublish() {
	st.mu.Lock()
	st.sinceSnap++
	due := st.sinceSnap >= st.opt.SnapshotEvery
	if due {
		st.sinceSnap = 0
	}
	st.mu.Unlock()
	if due {
		select {
		case st.snapCh <- struct{}{}:
		default:
		}
	}
}

// snapshotLoop is the background checkpointer.
func (st *Store) snapshotLoop() {
	defer st.wg.Done()
	for {
		select {
		case <-st.snapCh:
			if err := st.Snapshot(); err != nil {
				st.mu.Lock()
				st.snapErrors++
				st.lastSnapError = err.Error()
				st.mu.Unlock()
			}
		case <-st.done:
			return
		}
	}
}

// Snapshot synchronously exports the bound stream's state and writes it
// as the newest checkpoint (temp file + fsync + atomic rename), then
// applies the retention policy: prune old snapshots and truncate WAL
// segments wholly covered by the oldest retained one.
func (st *Store) Snapshot() error {
	st.mu.Lock()
	stream := st.stream
	st.mu.Unlock()
	if stream == nil {
		return errors.New("store: no stream bound")
	}
	if st.opt.OnStage != nil {
		t0 := time.Now()
		defer func() { st.opt.OnStage("snapshot", time.Since(t0)) }()
	}
	state, err := stream.ExportState()
	if err != nil {
		return err
	}
	path := filepath.Join(st.dir, snapName(state.Seq))
	tmp, err := os.CreateTemp(st.dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteStreamState(tmp, state); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}

	st.mu.Lock()
	if state.Seq >= st.lastSnapSeq {
		st.lastSnapSeq = state.Seq
		st.lastSnapVer = state.Version
	}
	st.snapsWritten++
	st.mu.Unlock()

	// Retention: newest KeepSnapshots survive; the WAL only needs to
	// reach back to the oldest survivor.
	snaps, err := st.listSnapshots()
	if err != nil {
		return err
	}
	if len(snaps) > st.opt.KeepSnapshots {
		for _, s := range snaps[:len(snaps)-st.opt.KeepSnapshots] {
			if err := os.Remove(s.path); err != nil {
				return err
			}
		}
		snaps = snaps[len(snaps)-st.opt.KeepSnapshots:]
	}
	if err := st.wal.TruncateThrough(snaps[0].seq); err != nil {
		return err
	}
	// Sidecar retention rides the same cycle: compact the history file
	// down to the serving layer's floor (TrimHistory) when enough of it
	// is dead. A failed compaction is counted, not fatal — the old file
	// keeps working.
	if st.hist != nil {
		c0 := time.Now()
		cerr := st.hist.MaybeCompact()
		if st.opt.OnStage != nil {
			st.opt.OnStage("compaction", time.Since(c0))
		}
		if cerr != nil {
			st.mu.Lock()
			st.histErrors++
			st.mu.Unlock()
		}
	}
	return nil
}

type snapRef struct {
	path string
	seq  uint64
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// listSnapshots returns the snapshot files sorted by sequence,
// ascending.
func (st *Store) listSnapshots() ([]snapRef, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []snapRef
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue
		}
		out = append(out, snapRef{path: filepath.Join(st.dir, name), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// loadLatestState loads the newest snapshot that parses and passes its
// checksum, falling back to older ones (counting the skips). A corrupt
// newest snapshot — a crash mid-rename can in principle leave one — is
// therefore harmless as long as one predecessor survives.
func (st *Store) loadLatestState() (*core.StreamState, int, error) {
	snaps, err := st.listSnapshots()
	if err != nil {
		return nil, 0, err
	}
	skipped := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		f, err := os.Open(snaps[i].path)
		if err != nil {
			skipped++
			continue
		}
		state, err := ReadStreamState(f)
		f.Close()
		if err != nil {
			skipped++
			continue
		}
		return state, skipped, nil
	}
	return nil, skipped, errNoSnapshot
}

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() StoreStats {
	walRecords, walBytes, walSegs, fsyncs := st.wal.counters()
	var histRecs, histBytes, histCompacts int64
	if st.hist != nil {
		histRecs, histBytes = st.hist.Counters()
		histCompacts = st.hist.Compactions()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		HistoryRecords:      histRecs,
		HistoryBytes:        histBytes,
		HistoryErrors:       st.histErrors,
		HistoryCompactions:  histCompacts,
		Dir:                 st.dir,
		Sync:                st.opt.Sync.String(),
		WALRecords:          walRecords,
		WALBytes:            walBytes,
		WALSegments:         walSegs,
		WALFsyncs:           fsyncs,
		SnapshotsWritten:    st.snapsWritten,
		LastSnapshotSeq:     st.lastSnapSeq,
		LastSnapshotVersion: st.lastSnapVer,
		SnapshotErrors:      st.snapErrors,
		LastSnapshotError:   st.lastSnapError,
		Recovery:            st.recovery,
	}
}

// Close stops the background snapshotter, writes a final checkpoint
// (so a clean restart replays nothing), and closes the WAL. Safe to
// call more than once.
func (st *Store) Close() error {
	st.closeOnce.Do(func() {
		close(st.done)
		st.wg.Wait()
		var errs []error
		st.mu.Lock()
		bound := st.stream != nil
		st.mu.Unlock()
		if bound {
			if err := st.Snapshot(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := st.wal.Close(); err != nil {
			errs = append(errs, err)
		}
		if st.hist != nil {
			if err := st.hist.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		st.closeErr = errors.Join(errs...)
	})
	return st.closeErr
}
