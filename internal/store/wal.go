package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/graph"
)

// The store's one record log: an append-only sequence of CRC-framed
// records split into size-rotated segment files, each record keyed by
// the uvarint its payload leads with, the keys strictly increasing. A
// crash mid-write (a torn tail) is detected and physically discarded on
// the next open; retention drops whole segments below a key. Two
// instances exist: the write-ahead log (key = the stream's batch
// sequence number, so recovery knows exactly where a snapshot's
// coverage ends and replay must begin) and the history sidecar
// (key = the published version; history.go).
//
// Segment layout:
//
//	<prefix><firstkey:016x>.seg
//	  magic <format byte>
//	  record*:  u32le payloadLen | u32le crc32c(payload) | payload
//	  payload:  uvarint key | the instance's body
//
// The WAL is wal/wal-*.seg, magic "CLUW", format 1, body: uvarint count
// | count × (op byte, uvarint from, uvarint to).
//
// Durability is governed by SyncPolicy: SyncAlways fsyncs after every
// append (every acknowledged batch survives power loss), SyncNone
// leaves flushing to the OS (bounded data loss, much higher ingest
// throughput).

// SyncPolicy selects the WAL's fsync behavior.
type SyncPolicy int

const (
	// SyncAlways fsyncs the active segment after every append.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs explicitly; the OS flushes at its leisure.
	SyncNone
)

// ParseSyncPolicy maps the flag spelling ("always", "none") to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always|none)", s)
}

func (p SyncPolicy) String() string {
	if p == SyncNone {
		return "none"
	}
	return "always"
}

const (
	walVersion    = 1
	segHeaderLen  = 5
	recordMax     = 64 << 20 // sanity bound on one record's payload
	defaultSegMax = 4 << 20
)

// logKind names one instance of the record log on disk.
type logKind struct {
	prefix, magic string
	format        byte
}

var (
	walLog  = logKind{prefix: "wal-", magic: "CLUW", format: walVersion}
	histLog = logKind{prefix: "hist-", magic: "CLUH", format: 2}
)

// segment is one segment file: the key its name carries (every record
// in it is at or above that key and below the next segment's), its
// valid records and bytes.
type segment struct {
	path           string
	first          uint64
	records, bytes int64
}

// segLog is an open record log. All methods are safe for concurrent
// use; appends serialize.
type segLog struct {
	dir    string
	kind   logKind
	policy SyncPolicy
	segMax int64

	mu   sync.Mutex
	f    *os.File  // active segment (nil until the first append, or when full)
	segs []segment // on disk, oldest first; the active one is last
	last uint64
	has  bool // a record exists or existed (key 0 is a real key)

	// records and bytes count what was appended or found valid at open
	// (they never shrink); fsyncs the explicit syncs; truncations the
	// TruncateThrough calls that removed a segment.
	records, bytes, fsyncs, truncations int64
}

// openSegLog opens (creating if needed) the log of the given kind in
// dir. Existing segments are read in order and check vets every
// CRC-valid record; the first invalid record — a torn tail from a crash
// mid-append, corruption, or a record check rejects — is physically
// truncated away along with everything after it, so the on-disk log is
// always exactly its valid prefix.
func openSegLog(dir string, kind logKind, policy SyncPolicy, segMax int64, check func(key uint64, payload []byte) bool) (*segLog, error) {
	if segMax <= 0 {
		segMax = defaultSegMax
	}
	l := &segLog{dir: dir, kind: kind, policy: policy, segMax: segMax}
	segs, err := kind.list(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		end, err := kind.frames(seg.path, data, func(key uint64, payload []byte) bool {
			if !check(key, payload) {
				return false
			}
			seg.records++
			l.last, l.has = key, true
			return true
		})
		if err != nil {
			return nil, err
		}
		seg.bytes = end
		l.records += seg.records
		l.bytes += end
		if end >= segHeaderLen && end == int64(len(data)) {
			l.segs = append(l.segs, seg)
			continue
		}
		// Torn or corrupt tail: truncate this segment at the last valid
		// boundary and drop every later segment (they were written after
		// the damage and are unreachable for replay). A segment without
		// even a valid header — an empty file included — is removed
		// outright so the append path never extends a headerless file.
		if end < segHeaderLen {
			err = os.Remove(seg.path)
		} else {
			err = os.Truncate(seg.path, end)
			l.segs = append(l.segs, seg)
		}
		if err != nil {
			return nil, err
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later.path); err != nil {
				return nil, err
			}
		}
		break
	}
	// Re-open the last surviving segment for append when it has room.
	if n := len(l.segs); n > 0 && l.segs[n-1].bytes < segMax {
		if l.f, err = os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// list returns the kind's segment files in dir (created if missing)
// sorted by first key.
func (k logKind) list(dir string) ([]segment, error) {
	files, err := OpenFiles(dir, k.names())
	if err != nil {
		return nil, err
	}
	out := make([]segment, len(files.keys))
	for i, first := range files.keys {
		out[i] = segment{path: files.Path(first), first: first}
	}
	return out, nil
}

// names spells the kind's segment names: <prefix><firstkey:016x>.seg.
func (k logKind) names() Name { return Name{Prefix: k.prefix, Suffix: ".seg"} }

// frames walks the valid prefix of one segment's bytes, handing each
// record's key and payload to fn until fn declines one, and returns
// where the walk stopped: the end of the prefix (the first torn or
// CRC-failing frame, or the record fn declined), or 0 when the header
// is unreadable (a crash tore the segment's creation). A segment
// written by a newer binary holds acknowledged records this one cannot
// parse: it is refused loudly — the versioning policy everywhere else —
// rather than treated as garbage and deleted.
func (k logKind) frames(path string, data []byte, fn func(key uint64, payload []byte) bool) (int64, error) {
	if len(data) >= segHeaderLen && string(data[:4]) == k.magic && data[4] > k.format {
		return 0, fmt.Errorf("store: segment %s has format version %d (this binary reads up to %d)", path, data[4], k.format)
	}
	if len(data) < segHeaderLen || string(data[:4]) != k.magic || data[4] != k.format {
		return 0, nil
	}
	off := int64(segHeaderLen)
	for int64(len(data))-off >= 8 {
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if plen <= 0 || plen > recordMax || off+8+plen > int64(len(data)) {
			break
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		key, n := binary.Uvarint(payload)
		if n <= 0 || !fn(key, payload) {
			break
		}
		off += 8 + plen
	}
	return off, nil
}

// append writes one record — one write(2) — whose payload leads with
// key; keys must be strictly increasing. The record is durable per the
// sync policy when append returns.
func (l *segLog) append(key uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.has && key <= l.last {
		return fmt.Errorf("store: %s append key %d not after %d", l.kind.magic, key, l.last)
	}
	if len(payload) > recordMax {
		// The read side rejects oversized records; writing one would be
		// silent data loss at recovery time.
		return fmt.Errorf("store: %s record of %d bytes is over the bound %d", l.kind.magic, len(payload), recordMax)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[8:], payload)

	if l.f == nil || l.segs[len(l.segs)-1].bytes >= l.segMax {
		if err := l.rotateLocked(key); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	active := &l.segs[len(l.segs)-1]
	active.records++
	active.bytes += int64(len(frame))
	l.records++
	l.bytes += int64(len(frame))
	l.last, l.has = key, true
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.fsyncs++
	}
	return nil
}

// rotateLocked closes the active segment and starts a new one whose
// name carries the first key it will hold.
func (l *segLog) rotateLocked(first uint64) error {
	if l.f != nil {
		if l.policy == SyncAlways {
			if err := l.f.Sync(); err != nil {
				return err
			}
			l.fsyncs++
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, l.kind.names().Format(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append([]byte(l.kind.magic), l.kind.format)); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segs = append(l.segs, segment{path: path, first: first, bytes: segHeaderLen})
	l.bytes += segHeaderLen
	return syncDir(l.dir)
}

// TruncateThrough removes the segments every record of which has a key
// <= key (segment i holds keys below segment i+1's first). The active
// segment is never removed.
func (l *segLog) TruncateThrough(key uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	var err error
	for ; n+1 < len(l.segs) && l.segs[n+1].first <= key+1; n++ {
		if err = os.Remove(l.segs[n].path); err != nil {
			break
		}
	}
	if n > 0 {
		l.segs = l.segs[n:]
		l.truncations++
	}
	return err
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *segLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.fsyncs++
	return l.f.Sync()
}

// newest returns the newest key the log has held and whether it has
// held any.
func (l *segLog) newest() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last, l.has
}

// onDisk returns the records and bytes the segments on disk hold now.
func (l *segLog) onDisk() (records, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		records += s.records
		bytes += s.bytes
	}
	return records, bytes
}

// Close syncs (under SyncAlways) and closes the active segment.
func (l *segLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.policy == SyncAlways {
		err = l.f.Sync()
		l.fsyncs++
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// WAL is the write-ahead log of edge batches, keyed by batch sequence.
type WAL struct{ *segLog }

// OpenWAL opens (creating if needed) the log in dir, discarding any
// torn tail (see openSegLog).
func OpenWAL(dir string, policy SyncPolicy, segMax int64) (*WAL, error) {
	l, err := openSegLog(dir, walLog, policy, segMax, func(_ uint64, payload []byte) bool {
		_, _, err := decodeRecord(payload)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return &WAL{l}, nil
}

// Append logs one batch under the given sequence number. The append is
// durable per the sync policy when Append returns. Sequence numbers
// must be strictly increasing.
func (w *WAL) Append(seq uint64, events []graph.EdgeEvent) error {
	return w.append(seq, encodeRecord(seq, events))
}

// Replay feeds every logged batch with sequence > fromSeq to fn in
// order. Segments wholly covered by fromSeq are skipped without being
// read. fn returning an error aborts the replay with that error.
func (w *WAL) Replay(fromSeq uint64, fn func(seq uint64, events []graph.EdgeEvent) error) error {
	w.mu.Lock()
	segs := append([]segment(nil), w.segs...)
	w.mu.Unlock()
	for i, seg := range segs {
		// A segment can be skipped only when even its last record is
		// covered.
		if i+1 < len(segs) && segs[i+1].first <= fromSeq+1 {
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		var ferr error
		if _, err := w.kind.frames(seg.path, data, func(seq uint64, payload []byte) bool {
			if seq > fromSeq {
				var events []graph.EdgeEvent
				if _, events, ferr = decodeRecord(payload); ferr == nil {
					ferr = fn(seq, events)
				}
			}
			return ferr == nil
		}); err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// LastSeq returns the sequence of the most recent valid record (0 when
// the log is empty).
func (w *WAL) LastSeq() uint64 {
	seq, _ := w.newest()
	return seq
}

// counters returns the WAL's accounting (records and bytes appended or
// scanned valid at open, segments on disk, explicit fsyncs).
func (w *WAL) counters() (records, bytes int64, segments int, fsyncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes, len(w.segs), w.fsyncs
}

// encodeRecord builds one record payload.
func encodeRecord(seq uint64, events []graph.EdgeEvent) []byte {
	buf := make([]byte, 0, 16+len(events)*7)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(events)))
	for _, ev := range events {
		buf = append(buf, byte(ev.Op))
		buf = binary.AppendUvarint(buf, uint64(ev.From))
		buf = binary.AppendUvarint(buf, uint64(ev.To))
	}
	return buf
}

// decodeRecord parses one record payload.
func decodeRecord(p []byte) (uint64, []graph.EdgeEvent, error) {
	off := 0
	get := func() (uint64, bool) {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	seq, ok := get()
	if !ok {
		return 0, nil, fmt.Errorf("%w: record missing sequence", ErrCorrupt)
	}
	cnt, ok := get()
	if !ok || cnt > uint64(len(p)) {
		return 0, nil, fmt.Errorf("%w: record event count implausible", ErrCorrupt)
	}
	events := make([]graph.EdgeEvent, 0, min(int(cnt), preallocCap))
	for i := uint64(0); i < cnt; i++ {
		if off >= len(p) {
			return 0, nil, fmt.Errorf("%w: record truncated", ErrCorrupt)
		}
		op := graph.EdgeOp(p[off])
		off++
		from, ok1 := get()
		to, ok2 := get()
		if !ok1 || !ok2 || from > maxSliceLen || to > maxSliceLen {
			return 0, nil, fmt.Errorf("%w: record event malformed", ErrCorrupt)
		}
		events = append(events, graph.EdgeEvent{From: int(from), To: int(to), Op: op})
	}
	if off != len(p) {
		return 0, nil, fmt.Errorf("%w: record has %d trailing bytes", ErrCorrupt, len(p)-off)
	}
	return seq, events, nil
}

// syncDir fsyncs a directory so renames and creations within it are
// durable (no-op on platforms where directories cannot be opened).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	return d.Sync()
}
