package bennett

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/lu"
)

// This file is the delta-compressed version history: instead of
// retaining a full factor clone per published version (the
// clone-per-checkpoint economy, O(|factors|) bytes per version), a
// HistoryLog keeps the validated rank-1 term sequence each version
// applied to its predecessor — typically a few short sparse vectors —
// and Materialize rebuilds any version on demand by cloning a base and
// replaying the terms onto the clone. Replay runs the exact per-term
// loop the live update path runs (same scratch code, same term order,
// same arithmetic), so a materialized container is bit-identical to the
// full clone it replaces.

// ErrHistoryGap reports that the log is missing a record needed to
// cover the requested version range (trimmed, or never recorded).
var ErrHistoryGap = errors.New("bennett: history log does not cover the version range")

// ErrStructuralBreak reports that the requested range crosses a
// structural event (refactorization, reordering, dimension change) —
// versions past it need a newer base, not a longer replay.
var ErrStructuralBreak = errors.New("bennett: version range crosses a structural rebuild")

// VersionRecord is one published version's entry in the history: the
// rank-1 terms that turned version Version−1 into Version, or a
// structural marker when the step rebuilt the factors from scratch
// (no delta exists; such versions start a new chain and must be
// retained as full bases). Terms and their W slices are immutable
// once recorded.
type VersionRecord struct {
	Version    uint64
	Structural bool
	Terms      []Rank1Term
}

// RecordBytes estimates the heap bytes a record retains — the history
// analogue of lu.MemBytes, used by budget accounting and the history
// benchmark's resident-bytes columns.
func RecordBytes(rec VersionRecord) int64 {
	const (
		recB   = 40 // Version + Structural + Terms header
		termB  = 40 // Key + ByCol + W header
		entryB = 24 // sparse.Entry
	)
	b := int64(recB)
	for _, t := range rec.Terms {
		b += termB + int64(len(t.W))*entryB
	}
	return b
}

// HistoryLog holds a contiguous window of version records. It is safe
// for concurrent use: the publish path Records new versions while
// query-side materializations CopyRange older ones. Records are
// idempotent per version — WAL replay after a restart re-publishes the
// same versions with bit-identical deltas, and re-recording them must
// be a no-op in effect.
type HistoryLog struct {
	mu   sync.Mutex
	base uint64 // version of recs[0]; meaningful only when len(recs) > 0
	recs []VersionRecord
}

// NewHistoryLog returns an empty log.
func NewHistoryLog() *HistoryLog { return &HistoryLog{} }

// Record stores rec. Appends extend the window; a version already in
// the window overwrites in place (replayed publishes); a version that
// does not abut the window resets the log to just rec — the stream
// restarted somewhere the log cannot bridge, and a contiguous window
// is worth more than a stale one.
func (l *HistoryLog) Record(rec VersionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case len(l.recs) == 0:
		l.base = rec.Version
		l.recs = append(l.recs, rec)
	case rec.Version == l.base+uint64(len(l.recs)):
		l.recs = append(l.recs, rec)
	case rec.Version >= l.base && rec.Version < l.base+uint64(len(l.recs)):
		l.recs[rec.Version-l.base] = rec
	default:
		l.base = rec.Version
		l.recs = append(l.recs[:0], rec)
	}
}

// Get returns the record for version v, if the window holds it.
func (l *HistoryLog) Get(v uint64) (VersionRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 || v < l.base || v >= l.base+uint64(len(l.recs)) {
		return VersionRecord{}, false
	}
	return l.recs[v-l.base], true
}

// Bounds returns the inclusive version range the window covers.
func (l *HistoryLog) Bounds() (oldest, newest uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0, 0, false
	}
	return l.base, l.base + uint64(len(l.recs)) - 1, true
}

// Len returns the number of records in the window.
func (l *HistoryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// TrimBelow drops records for versions < v (retention following the
// snapshot/spill policy of the owning layer).
func (l *HistoryLog) TrimBelow(v uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 || v <= l.base {
		return
	}
	if v >= l.base+uint64(len(l.recs)) {
		l.recs = l.recs[:0]
		return
	}
	drop := int(v - l.base)
	n := copy(l.recs, l.recs[drop:])
	l.recs = l.recs[:n]
	l.base = v
}

// Bytes estimates the heap bytes the window retains.
func (l *HistoryLog) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b int64
	for _, rec := range l.recs {
		b += RecordBytes(rec)
	}
	return b
}

// CopyRange appends the records for versions fromVer+1..toVer to dst
// (reusing its capacity) and returns it. Every version in the range
// must be present (else ErrHistoryGap) and non-structural (else
// ErrStructuralBreak): a structural version has no delta to replay.
// The grown dst is returned even on error so callers keep the buffer.
func (l *HistoryLog) CopyRange(dst []VersionRecord, fromVer, toVer uint64) ([]VersionRecord, error) {
	if toVer < fromVer {
		return dst, fmt.Errorf("%w: to=%d before from=%d", ErrHistoryGap, toVer, fromVer)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for v := fromVer + 1; v <= toVer; v++ {
		if len(l.recs) == 0 || v < l.base || v >= l.base+uint64(len(l.recs)) {
			return dst, fmt.Errorf("%w: version %d", ErrHistoryGap, v)
		}
		rec := l.recs[v-l.base]
		if rec.Structural {
			return dst, fmt.Errorf("%w: version %d", ErrStructuralBreak, v)
		}
		dst = append(dst, rec)
	}
	return dst, nil
}

// MaterializeWorkspace pools what a replay needs besides the result —
// the dense recurrence scratch and the record staging slice — so a warm
// workspace allocates only the container it hands back. Not safe for
// concurrent use; keep one per materializing goroutine.
type MaterializeWorkspace struct {
	ws     Workspace
	recbuf []VersionRecord
}

// Materialize rebuilds the factors of version toVer: it clones base
// (the retained factors of version fromVer) and replays the log's
// records fromVer+1..toVer onto the clone. The result is always a new
// container — a static one shares base's index structure and owns only
// its values, so there is nothing to recycle, and handing out a used
// container would rewrite values under whoever still solves against it.
// It is bit-identical to the full clone retained at toVer: replay runs
// the same per-term loop as the live update path (Workspace.ApplyTerms),
// and for the dynamic container even the node-pool layout reproduces
// exactly because splices append deterministically.
func (mw *MaterializeWorkspace) Materialize(base lu.Factors, log *HistoryLog, fromVer, toVer uint64, st *Stats) (lu.Factors, error) {
	recs, err := log.CopyRange(mw.recbuf[:0], fromVer, toVer)
	mw.recbuf = recs[:0]
	if err != nil {
		return nil, err
	}
	out := base.Clone()
	for _, rec := range recs {
		if err := mw.ws.ApplyTerms(out, rec.Terms, st); err != nil {
			return nil, fmt.Errorf("bennett: replaying version %d: %w", rec.Version, err)
		}
	}
	return out, nil
}
