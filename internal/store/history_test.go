package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// recordHistory runs a stream and collects every OnPublish record — the
// live-run truth the sidecar tests compare against.
func recordHistory(t *testing.T, alg core.Algorithm, g0 *graph.Graph, batches [][]graph.EdgeEvent) []bennett.VersionRecord {
	t.Helper()
	var recs []bennett.VersionRecord
	s, err := core.NewStream(core.StreamConfig{
		Algorithm: alg, Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85),
		OnPublish: func(_ *lu.Solver, rec bennett.VersionRecord) { recs = append(recs, rec) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return recs
}

// randomRecords fabricates version records with adversarial contents
// (negative keys, unsorted supports, denormal values) — the codec must
// be lossless regardless of what SplitTerms happens to emit today.
func randomRecords(rng *xrand.Rand, count int) []bennett.VersionRecord {
	out := make([]bennett.VersionRecord, count)
	for i := range out {
		rec := bennett.VersionRecord{Version: uint64(i), Structural: rng.Intn(4) == 0}
		for k := rng.Intn(4); k > 0; k-- {
			tm := bennett.Rank1Term{Key: rng.Intn(100) - 50, ByCol: rng.Intn(2) == 0}
			for j := rng.Intn(5); j > 0; j-- {
				tm.W = append(tm.W, sparse.Entry{Row: rng.Intn(200) - 100, Val: rng.NormFloat64() * 1e-20})
			}
			rec.Terms = append(rec.Terms, tm)
		}
		out[i] = rec
	}
	return out
}

// TestHistoryRecordCodecRoundTrip checks the payload codec alone:
// encode → decode must reproduce every field bit for bit.
func TestHistoryRecordCodecRoundTrip(t *testing.T) {
	rng := xrand.New(67)
	for _, rec := range randomRecords(rng, 40) {
		var buf bytes.Buffer
		encodeHistoryRecord(&buf, rec)
		got, err := decodeHistoryRecord(buf.Bytes())
		if err != nil {
			t.Fatalf("version %d: %v", rec.Version, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Errorf("version %d: record did not round-trip", rec.Version)
		}
	}
}

// testLog is one open instance of the record log under test: add
// appends its i-th record, held lists what the open found, oldest first.
type testLog struct {
	*segLog
	add  func(i int) error
	held []any
}

type walRec struct {
	seq    uint64
	events []graph.EdgeEvent
}

// logCase is one record kind — the WAL's batches or the history
// sidecar's version records — driven through the same file-level cases.
// Record i has key key(i); rec(i) is how held reports it; check is the
// open-time validity test of a payload.
type logCase struct {
	name  string
	kind  logKind
	key   func(i int) uint64
	rec   func(i int) any
	check func(payload []byte) bool
	open  func(dir string, segMax int64) (*testLog, error)
}

func logCases() []logCase {
	hist := randomRecords(xrand.New(71), 200)
	return []logCase{{
		name: "wal", kind: walLog,
		key: func(i int) uint64 { return uint64(i + 1) },
		rec: func(i int) any { return walRec{uint64(i + 1), walEvents(i)} },
		check: func(p []byte) bool {
			_, _, err := decodeRecord(p)
			return err == nil
		},
		open: func(dir string, segMax int64) (*testLog, error) {
			w, err := OpenWAL(dir, SyncNone, segMax)
			if err != nil {
				return nil, err
			}
			l := &testLog{segLog: w.segLog, add: func(i int) error { return w.Append(uint64(i+1), walEvents(i)) }}
			return l, w.Replay(0, func(seq uint64, events []graph.EdgeEvent) error {
				l.held = append(l.held, walRec{seq, events})
				return nil
			})
		},
	}, {
		name: "history", kind: histLog,
		key: func(i int) uint64 { return uint64(i) },
		rec: func(i int) any { return hist[i] },
		check: func(p []byte) bool {
			_, err := decodeHistoryRecord(p)
			return err == nil
		},
		open: func(dir string, segMax int64) (*testLog, error) {
			h, err := openHistory(dir, segMax)
			if err != nil {
				return nil, err
			}
			l := &testLog{segLog: h.segLog, add: func(i int) error { return h.Append(hist[i]) }}
			for _, rec := range h.LoadHistory() {
				l.held = append(l.held, rec)
			}
			return l, nil
		},
	}}
}

func (c logCase) mustOpen(t testing.TB, dir string, segMax int64) *testLog {
	t.Helper()
	l, err := c.open(dir, segMax)
	if err != nil {
		t.Fatalf("%s: open: %v", c.name, err)
	}
	return l
}

// records lists records lo..hi-1 as held reports them.
func (c logCase) records(lo, hi int) []any {
	var out []any
	for i := lo; i < hi; i++ {
		out = append(out, c.rec(i))
	}
	return out
}

func (c logCase) fill(t *testing.T, l *testLog, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := l.add(i); err != nil {
			t.Fatalf("%s: record %d: %v", c.name, i, err)
		}
	}
}

// TestHistoryFileAppendScan writes records across rotated segments,
// reopens the log, and expects the scan to return them all, for both
// record kinds. A re-append of a key already on disk is refused by the
// WAL and swallowed by the history sidecar's idempotency guard — version
// 0 included: it is a real key, not "empty".
func TestHistoryFileAppendScan(t *testing.T) {
	for _, c := range logCases() {
		dir := t.TempDir()
		l := c.mustOpen(t, dir, 128)
		c.fill(t, l, 0, 25)
		if len(l.segs) < 3 {
			t.Fatalf("%s: 25 records rotated into %d segments, want several", c.name, len(l.segs))
		}
		before, _ := l.onDisk()
		for _, i := range []int{0, 10, 24} {
			err := l.add(i)
			if c.name == "wal" && err == nil {
				t.Errorf("wal: re-append of record %d accepted", i)
			}
			if c.name == "history" && err != nil {
				t.Errorf("history: re-append of record %d: %v", i, err)
			}
		}
		if after, _ := l.onDisk(); after != before || before != 25 {
			t.Errorf("%s: %d records on disk, %d after re-appends, want 25", c.name, before, after)
		}
		l.Close()

		l2 := c.mustOpen(t, dir, 128)
		if !reflect.DeepEqual(l2.held, c.records(0, 25)) {
			t.Fatalf("%s: scan returned %d records, differing from the 25 written", c.name, len(l2.held))
		}
		c.fill(t, l2, 25, 30)
		l2.Close()
		if l3 := c.mustOpen(t, dir, 128); !reflect.DeepEqual(l3.held, c.records(0, 30)) {
			t.Fatalf("%s: appends after a reopen were lost", c.name)
		} else {
			l3.Close()
		}
	}
}

// TestHistoryFileCompaction is the retention case for both record kinds:
// TruncateThrough(k) drops exactly the segments whose every record is at
// or below k — so what is left holds every record above k and at most
// one segment's worth below it — never the active segment, and the log
// keeps accepting appends and reopens to the kept suffix.
func TestHistoryFileCompaction(t *testing.T) {
	for _, c := range logCases() {
		dir := t.TempDir()
		l := c.mustOpen(t, dir, 512)
		c.fill(t, l, 0, 100)
		segs := len(l.segs)
		_, bytesBefore := l.onDisk()

		if err := l.TruncateThrough(c.key(59)); err != nil {
			t.Fatal(err)
		}
		recs, bytesAfter := l.onDisk()
		first := 100 - int(recs)
		if len(l.segs) >= segs || bytesAfter >= bytesBefore || first > 60 {
			t.Fatalf("%s: truncation through record 59 left %d of %d segments, %d of %d bytes, records from %d",
				c.name, len(l.segs), segs, bytesAfter, bytesBefore, first)
		}
		if len(l.segs) > 1 && l.segs[1].first <= c.key(60) {
			t.Fatalf("%s: a segment wholly below record 60 survived", c.name)
		}
		c.fill(t, l, 100, 101)
		l.Close()

		l2 := c.mustOpen(t, dir, 512)
		if !reflect.DeepEqual(l2.held, c.records(first, 101)) {
			t.Fatalf("%s: reopened log holds %d records, want records %d..100", c.name, len(l2.held), first)
		}
		// The active segment survives any floor.
		if err := l2.TruncateThrough(c.key(100)); err != nil || len(l2.segs) != 1 {
			t.Fatalf("%s: truncation past the newest record left %d segments (%v)", c.name, len(l2.segs), err)
		}
		c.fill(t, l2, 101, 102)
		l2.Close()
	}
}

// TestHistoryFileCompactionPolicy pins the store's retention of both
// logs at the snapshot cycle: the WAL keeps what the oldest retained
// snapshot does not cover, the history sidecar what is not below the
// serving layer's floor (floors never regress), each trimmed to at most
// one segment of dead records.
func TestHistoryFileCompactionPolicy(t *testing.T) {
	const n = 30
	rng := xrand.New(7)
	g0 := randomGraph(n, 34, rng)
	batches := randomBatches(n, 40, 5, rng)
	dir := t.TempDir()
	st, err := Open(dir, Options{Sync: SyncNone, SnapshotEvery: 1 << 20, SegmentBytes: 256, History: true})
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := st.OpenStream(core.StreamConfig{Algorithm: core.INC, Initial: g0, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatal(err)
		}
		if i == 19 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.TrimHistory(25)
	st.TrimHistory(5)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Two snapshots survive (versions 20 and 40, sequence = version): the
	// WAL reaches back to the older one, the sidecar to the floor.
	for _, lc := range []struct {
		kind logKind
		dir  string
		keep uint64 // the oldest key that must stay
	}{{walLog, filepath.Join(dir, "wal"), 21}, {histLog, filepath.Join(dir, "history"), 25}} {
		segs, err := lc.kind.list(lc.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) == 0 || segs[0].first > lc.keep || (len(segs) > 1 && segs[1].first <= lc.keep) {
			t.Errorf("%s: segments start at %v, want the one holding key %d first", lc.kind.magic, segs, lc.keep)
		}
	}
	if stats := st.Stats(); stats.HistoryCompactions != 1 || stats.HistoryRecords >= int64(len(batches)+1) {
		t.Errorf("history after one trim: %d truncations, %d records", stats.HistoryCompactions, stats.HistoryRecords)
	}
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryFileTornTail cuts the final record at every byte boundary
// and flips a bit inside it, for both record kinds, and expects the
// scan to keep every complete predecessor, truncate the tail, and accept
// new appends; damage in an earlier segment also drops every later one.
func TestHistoryFileTornTail(t *testing.T) {
	for _, c := range logCases() {
		dir := t.TempDir()
		l := c.mustOpen(t, dir, 0)
		c.fill(t, l, 0, 5)
		path := l.segs[0].path
		mark, _ := os.Stat(path)
		c.fill(t, l, 5, 6)
		l.Close()
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), full...)
		flipped[len(full)-1] ^= 0x10
		var damaged [][]byte
		for cut := int(mark.Size()) + 1; cut < len(full); cut++ {
			damaged = append(damaged, full[:cut])
		}
		for k, data := range append(damaged, flipped) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l2 := c.mustOpen(t, dir, 0)
			if !reflect.DeepEqual(l2.held, c.records(0, 5)) {
				t.Fatalf("%s damage %d: torn scan kept %d records, want the 5 complete ones", c.name, k, len(l2.held))
			}
			if err := l2.add(5); err != nil {
				t.Fatalf("%s damage %d: append after truncation: %v", c.name, k, err)
			}
			l2.Close()
			if l3 := c.mustOpen(t, dir, 0); !reflect.DeepEqual(l3.held, c.records(0, 6)) {
				t.Fatalf("%s damage %d: repaired log lost records", c.name, k)
			} else {
				l3.Close()
			}
		}

		// Across segments: a torn middle segment ends the log there.
		dir = t.TempDir()
		l = c.mustOpen(t, dir, 64)
		c.fill(t, l, 0, 20)
		if len(l.segs) < 3 {
			t.Fatalf("%s: want several segments, got %d", c.name, len(l.segs))
		}
		mid, midFirst := l.segs[1], -1
		for i := 0; i < 20; i++ {
			if c.key(i) == mid.first {
				midFirst = i
			}
		}
		l.Close()
		if err := os.Truncate(mid.path, segHeaderLen+3); err != nil {
			t.Fatal(err)
		}
		l2 := c.mustOpen(t, dir, 64)
		if !reflect.DeepEqual(l2.held, c.records(0, midFirst)) || len(l2.segs) != 2 {
			t.Fatalf("%s: torn middle segment kept %d records in %d segments, want %d in 2", c.name, len(l2.held), len(l2.segs), midFirst)
		}
		l2.Close()
	}
}

// TestHistorySurvivesKillPointRecovery is the tentpole's durability
// property: for every kill point, the union of the sidecar's scanned
// records and the records re-fired during WAL replay must equal the
// uninterrupted run's record sequence bit for bit — so a restarted
// serving engine seeds exactly the history the live one had.
func TestHistorySurvivesKillPointRecovery(t *testing.T) {
	const n = 30
	rng := xrand.New(83)
	g0 := randomGraph(n, 34, rng)
	batches := randomBatches(n, 8, 5, rng)

	for _, alg := range []core.Algorithm{core.INC, core.CLUDE} {
		want := recordHistory(t, alg, g0, batches)

		for _, kill := range []int{0, 3, 5, len(batches)} {
			dir := t.TempDir()
			st, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20, History: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.StreamConfig{Algorithm: alg, Alpha: 0.9, Initial: g0, Derive: graph.RWRMatrix(0.85)}
			s1, _, err := st.OpenStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < kill; i++ {
				if _, err := s1.Apply(batches[i]); err != nil {
					t.Fatal(err)
				}
				if i == kill/2 {
					if err := st.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// SIGKILL: no Close — the sidecar tail past the last page
			// flush may be torn, which the recovery accounting below
			// tolerates by construction (WAL replay regenerates it).
			s1.Close()
			st.wal.Close()
			if st.hist != nil {
				st.hist.Close()
			}

			st2, err := Open(dir, Options{Sync: SyncAlways, SnapshotEvery: 1 << 20, History: true})
			if err != nil {
				t.Fatal(err)
			}
			// Seed-then-open, the order cludeserve uses: scanned records
			// first, replay-refired ones on top.
			got := append([]bennett.VersionRecord(nil), st2.LoadHistory()...)
			seeded := len(got)
			cfg2 := cfg
			cfg2.OnPublish = func(_ *lu.Solver, rec bennett.VersionRecord) {
				for len(got) > 0 && got[len(got)-1].Version >= rec.Version {
					got = got[:len(got)-1] // replay overwrites, like HistoryLog.Record
				}
				got = append(got, rec)
			}
			s2, _, err := st2.OpenStream(cfg2)
			if err != nil {
				t.Fatalf("%s kill=%d: reopen: %v", alg, kill, err)
			}
			// The restored stream publishes its snapshot version as a
			// structural record (a clean chain restart); everything else
			// must match the live run exactly.
			wantHere := append([]bennett.VersionRecord(nil), want[:kill+1]...)
			if len(got) != len(wantHere) {
				t.Fatalf("%s kill=%d: %d records after recovery (%d seeded), want %d", alg, kill, len(got), seeded, len(wantHere))
			}
			for i := range wantHere {
				w, g := wantHere[i], got[i]
				if g.Version != w.Version {
					t.Fatalf("%s kill=%d: record %d version %d, want %d", alg, kill, i, g.Version, w.Version)
				}
				if g.Structural && !w.Structural {
					continue // snapshot-restart record: conservative, never wrong
				}
				if !reflect.DeepEqual(w, g) {
					t.Errorf("%s kill=%d: record for version %d differs from live run", alg, kill, w.Version)
				}
			}
			s2.Close()
			st2.Close()
		}
	}
}

// factorBytes is a container's CLUF frame: equal frames are equal
// factors, bit for bit.
func factorBytes(t *testing.T, f lu.Factors) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFactors(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMixedTermsSurviveTheDurablePath: a symmetric walk matrix changes
// as crosses — an edge renormalizes the rows and the columns of its
// endpoints — so SplitTerms' minimum cover gives an undirected stream's
// records row and column terms side by side. For the dynamic (INC) and
// static (CLUDE) containers such records must survive what one-sided
// ones do: the CLUH codec round-trips them; replaying them onto a clone
// of their chain's base reproduces every live version bit for bit; and a
// kill at any point recovers the pre-kill state, seeds the same history
// and continues to the uninterrupted run's final state.
func TestMixedTermsSurviveTheDurablePath(t *testing.T) {
	const n = 30
	rng := xrand.New(101)
	g0 := randomGraph(n, 40, rng)
	// Flap a pool of edges off and on (updates inside any USSP), with a
	// random batch every third step for growth.
	pool := g0.Edges()[:3]
	random := randomBatches(n, 4, 3, rng)
	var batches [][]graph.EdgeEvent
	for i := 0; i < 12; i++ {
		var evs []graph.EdgeEvent
		switch i % 3 {
		case 0, 1:
			op := graph.EdgeDelete
			if i%3 == 1 {
				op = graph.EdgeInsert
			}
			for _, e := range pool {
				evs = append(evs, graph.EdgeEvent{From: e.From, To: e.To, Op: op})
			}
		default:
			evs = random[i/3]
		}
		batches = append(batches, evs)
	}

	for _, alg := range []core.Algorithm{core.INC, core.CLUDE} {
		cfg := core.StreamConfig{Algorithm: alg, Alpha: 0.9, Initial: g0, Derive: graph.SymmetricWalkMatrix(0.85)}

		// The live run: every record and every version's factors.
		var recs []bennett.VersionRecord
		var live [][]byte
		liveCfg := cfg
		liveCfg.OnPublish = func(sv *lu.Solver, rec bennett.VersionRecord) {
			recs = append(recs, rec)
			live = append(live, factorBytes(t, sv.F))
		}
		s, err := core.NewStream(liveCfg)
		if err != nil {
			t.Fatal(err)
		}
		var states []*core.StreamState
		for i, evs := range batches {
			if _, err := s.Apply(evs); err != nil {
				t.Fatalf("%s batch %d: %v", alg, i, err)
			}
			st, err := s.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, st)
		}
		s.Close()

		// Mixed records exist, round-trip through the codec, and replay.
		mixed := 0
		log := bennett.NewHistoryLog()
		var mw bennett.MaterializeWorkspace
		var base lu.Factors
		baseVer := uint64(0)
		for _, rec := range recs {
			var rows, cols bool
			for _, tm := range rec.Terms {
				rows, cols = rows || !tm.ByCol, cols || tm.ByCol
			}
			if rows && cols {
				mixed++
			}
			var buf bytes.Buffer
			encodeHistoryRecord(&buf, rec)
			if got, err := decodeHistoryRecord(buf.Bytes()); err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("%s version %d: CLUH record did not round-trip (%v)", alg, rec.Version, err)
			}
			log.Record(rec)
			if rec.Structural {
				var err error
				if base, err = ReadFactors(bytes.NewReader(live[rec.Version])); err != nil {
					t.Fatal(err)
				}
				baseVer = rec.Version
				continue
			}
			got, err := mw.Materialize(base, log, baseVer, rec.Version, nil)
			if err != nil {
				t.Fatalf("%s: materialize %d from %d: %v", alg, rec.Version, baseVer, err)
			}
			if !bytes.Equal(factorBytes(t, got), live[rec.Version]) {
				t.Errorf("%s: version %d materialized from %d differs from the live factors", alg, rec.Version, baseVer)
			}
		}
		if mixed < 4 {
			t.Fatalf("%s: %d of %d records mix row and column terms, want at least 4", alg, mixed, len(recs))
		}

		for _, kill := range []int{2, 5, len(batches)} {
			dir := t.TempDir()
			opt := Options{Sync: SyncAlways, SnapshotEvery: 1 << 20, History: true}
			st, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			s1, _, err := st.OpenStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < kill; i++ {
				if _, err := s1.Apply(batches[i]); err != nil {
					t.Fatal(err)
				}
				if i == kill/2 {
					if err := st.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// SIGKILL: no Close, no final snapshot.
			s1.Close()
			st.wal.Close()
			st.hist.Close()

			st2, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]bennett.VersionRecord(nil), st2.LoadHistory()...)
			cfg2 := cfg
			cfg2.OnPublish = func(_ *lu.Solver, rec bennett.VersionRecord) {
				for len(got) > 0 && got[len(got)-1].Version >= rec.Version {
					got = got[:len(got)-1]
				}
				got = append(got, rec)
			}
			s2, info, err := st2.OpenStream(cfg2)
			if err != nil {
				t.Fatalf("%s kill=%d: reopen: %v", alg, kill, err)
			}
			at := fmt.Sprintf("%s kill=%d", alg, kill)
			if state, err := s2.ExportState(); err != nil || !info.Recovered || !reflect.DeepEqual(state, states[kill-1]) {
				t.Fatalf("%s: recovered state differs from the pre-kill state (recovered %v, %v)", at, info.Recovered, err)
			}
			for i := kill; i < len(batches); i++ {
				if _, err := s2.Apply(batches[i]); err != nil {
					t.Fatalf("%s: batch %d after recovery: %v", at, i, err)
				}
			}
			if state, _ := s2.ExportState(); !reflect.DeepEqual(state, states[len(states)-1]) {
				t.Errorf("%s: continuation diverged from the uninterrupted run", at)
			}
			if len(got) != len(recs) {
				t.Fatalf("%s: %d records after recovery and continuation, want %d", at, len(got), len(recs))
			}
			for i, rec := range recs {
				// The restored snapshot version republishes as structural.
				if !(got[i].Structural && !rec.Structural && got[i].Version == rec.Version) && !reflect.DeepEqual(got[i], rec) {
					t.Errorf("%s: record for version %d differs from the live run", at, rec.Version)
				}
			}
			s2.Close()
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCodecV1BackCompat pins the retirement of format version 1 (the
// plain-varint layout before delta coding): a CLUF, CLUS or CLUD frame
// at version 1 is refused at its header with the "unsupported … format
// version" error — never reported as corruption, never mis-parsed.
func TestCodecV1BackCompat(t *testing.T) {
	rng := xrand.New(89)
	g0 := randomGraph(30, 30, rng)
	s := streamAfter(t, core.CLUDE, g0, randomBatches(30, 6, 5, rng))
	defer s.Close()
	state, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	solver := &lu.Solver{F: state.Static, O: state.Ord}
	for _, c := range []struct {
		magic string
		write func(*bytes.Buffer) error
		read  func(*bytes.Reader) error
	}{
		{factorsMagic, func(b *bytes.Buffer) error { return WriteFactors(b, state.Static) }, func(r *bytes.Reader) error { _, err := ReadFactors(r); return err }},
		{solverMagic, func(b *bytes.Buffer) error { return WriteSolver(b, solver) }, func(r *bytes.Reader) error { _, err := ReadSolver(r); return err }},
		{stateMagic, func(b *bytes.Buffer) error { return WriteStreamState(b, state) }, func(r *bytes.Reader) error { _, err := ReadStreamState(r); return err }},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if err := c.read(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: version %d frame refused: %v", c.magic, codecVersion, err)
		}
		data[len(c.magic)] = 1
		err := c.read(bytes.NewReader(data))
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported "+c.magic+" format version 1") {
			t.Errorf("%s: version 1 frame: %v, want the unsupported-version refusal", c.magic, err)
		}
	}
}

// TestIntsDeltaRoundTrip exercises the delta primitive on adversarial
// shapes: empty, negative, non-monotone, extremes.
func TestIntsDeltaRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{},
		{0},
		{5, 5, 5},
		{0, 1, 2, 3, 1000000, 3, -7},
		{-1 << 40, 1 << 40, 0},
	}
	rng := xrand.New(97)
	for k := 0; k < 20; k++ {
		s := make([]int, rng.Intn(50))
		for i := range s {
			s[i] = rng.Intn(1 << 20)
		}
		cases = append(cases, s)
	}
	for _, want := range cases {
		var buf bytes.Buffer
		c := newCW(&buf)
		c.intsDelta(want)
		if err := c.seal(); err != nil {
			t.Fatal(err)
		}
		r := newCR(&buf)
		got := r.intsDelta()
		if err := r.verify(); err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		if len(want) == 0 {
			if len(got) != 0 {
				t.Errorf("empty slice decoded to %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("intsDelta(%v) round-tripped to %v", want, got)
		}
	}
}
