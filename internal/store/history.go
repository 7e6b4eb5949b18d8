package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/bennett"
	"repro/internal/sparse"
)

// History sidecar: one bennett.VersionRecord per published version,
// feeding the serving layer's delta-compressed history across restarts.
// It is the second instance of the store's record log (wal.go):
// history/hist-<version:016x>.seg segments, magic "CLUH", format 2,
// keyed by version, rotated at segmentBytes and trimmed by
// dropping whole segments below the serving layer's retention floor.
// The log is a cache of information the WAL can mostly regenerate —
// losing its tail only shrinks the set of materializable old versions,
// never correctness — so appends are not fsynced (Close is).
//
// Payload: version, structural flag, and the rank-1 terms, each term's
// support rows delta-coded (they are sorted per SplitTerms' grouping of
// an already-ordered delta, so diffs are small).

// historyLog is the open sidecar; the records found at open wait in
// loaded for LoadHistory.
type historyLog struct {
	*segLog
	loaded []bennett.VersionRecord
}

// openHistory opens (or creates) the sidecar in dir, keeping every
// record of its valid prefix for LoadHistory.
func openHistory(dir string, segMax int64) (*historyLog, error) {
	h := &historyLog{}
	l, err := openSegLog(dir, histLog, SyncNone, segMax, func(_ uint64, payload []byte) bool {
		rec, err := decodeHistoryRecord(payload)
		if err == nil {
			h.loaded = append(h.loaded, rec)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	h.segLog = l
	return h, nil
}

// Append logs rec unless a version at or above it is already on disk —
// the idempotency guard that lets WAL replay re-fire publish hooks
// without duplicating records.
func (h *historyLog) Append(rec bennett.VersionRecord) error {
	if last, ok := h.newest(); ok && rec.Version <= last {
		return nil
	}
	var payload bytes.Buffer
	encodeHistoryRecord(&payload, rec)
	return h.append(rec.Version, payload.Bytes())
}

// LoadHistory returns the records found at open time, oldest first.
// The slice is owned by the caller; the log keeps no reference.
func (h *historyLog) LoadHistory() []bennett.VersionRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.loaded
	h.loaded = nil
	return out
}

// Close fsyncs and closes the sidecar.
func (h *historyLog) Close() error {
	err := h.Sync()
	if cerr := h.segLog.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeHistoryRecord writes rec's payload (no framing, no CRC).
func encodeHistoryRecord(w *bytes.Buffer, rec bennett.VersionRecord) {
	var scratch [binary.MaxVarintLen64]byte
	putU := func(v uint64) { w.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	putI := func(v int64) { w.Write(scratch[:binary.PutVarint(scratch[:], v)]) }
	putU(rec.Version)
	if rec.Structural {
		putU(1)
	} else {
		putU(0)
	}
	putU(uint64(len(rec.Terms)))
	for _, t := range rec.Terms {
		putI(int64(t.Key))
		if t.ByCol {
			putU(1)
		} else {
			putU(0)
		}
		putU(uint64(len(t.W)))
		prev := int64(0)
		for _, e := range t.W {
			putI(int64(e.Row) - prev)
			prev = int64(e.Row)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Val))
			w.Write(b[:])
		}
	}
}

// decodeHistoryRecord parses one payload produced by
// encodeHistoryRecord.
func decodeHistoryRecord(p []byte) (bennett.VersionRecord, error) {
	r := bytes.NewReader(p)
	var rec bennett.VersionRecord
	u := func() (uint64, error) { return binary.ReadUvarint(r) }
	i := func() (int64, error) { return binary.ReadVarint(r) }
	var err error
	if rec.Version, err = u(); err != nil {
		return rec, err
	}
	s, err := u()
	if err != nil {
		return rec, err
	}
	rec.Structural = s != 0
	nt, err := u()
	if err != nil {
		return rec, err
	}
	if nt > uint64(len(p)) {
		return rec, fmt.Errorf("%w: %d terms", ErrCorrupt, nt)
	}
	if nt > 0 {
		rec.Terms = make([]bennett.Rank1Term, 0, min(int(nt), preallocCap))
	}
	for k := uint64(0); k < nt; k++ {
		var t bennett.Rank1Term
		key, err := i()
		if err != nil {
			return rec, err
		}
		t.Key = int(key)
		bc, err := u()
		if err != nil {
			return rec, err
		}
		t.ByCol = bc != 0
		ne, err := u()
		if err != nil {
			return rec, err
		}
		if ne > uint64(len(p)) {
			return rec, fmt.Errorf("%w: %d entries", ErrCorrupt, ne)
		}
		if ne > 0 {
			t.W = make([]sparse.Entry, 0, min(int(ne), preallocCap))
		}
		prev := int64(0)
		for j := uint64(0); j < ne; j++ {
			d, err := i()
			if err != nil {
				return rec, err
			}
			prev += d
			var b [8]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return rec, err
			}
			t.W = append(t.W, sparse.Entry{Row: int(prev), Val: math.Float64frombits(binary.LittleEndian.Uint64(b[:]))})
		}
		rec.Terms = append(rec.Terms, t)
	}
	if r.Len() != 0 {
		return rec, fmt.Errorf("%w: %d trailing bytes in history record", ErrCorrupt, r.Len())
	}
	return rec, nil
}
