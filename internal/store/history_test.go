package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
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

// TestHistoryFileAppendScan writes records, reopens the file, and
// expects the scan to return them all; the idempotency guard must
// swallow re-appends of already-persisted versions.
func TestHistoryFileAppendScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.cluh")
	rng := xrand.New(71)
	recs := randomRecords(rng, 25)

	h, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Replay re-fires: versions at or below the newest must be no-ops.
	before, _ := h.Counters()
	for _, rec := range recs[10:] {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := h.Counters(); after != before {
		t.Errorf("re-append grew records %d -> %d", before, after)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got := h2.LoadHistory()
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("scan returned %d records, differing from the %d written", len(got), len(recs))
	}
}

// TestHistoryFileCompaction is the sidecar-retention regression: the
// file must shrink when the serving layer's floor passes dead records,
// keep exactly the live suffix (bit-identical across a reopen), and
// keep accepting appends afterwards.
func TestHistoryFileCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.cluh")
	rng := xrand.New(42)
	recs := randomRecords(rng, 100)

	h, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	_, bytesBefore := h.Counters()

	h.SetFloor(60)
	if err := h.MaybeCompact(); err != nil {
		t.Fatal(err)
	}
	if got := h.Compactions(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	nRecs, bytesAfter := h.Counters()
	if nRecs != 40 {
		t.Errorf("records after compaction = %d, want 40", nRecs)
	}
	if bytesAfter >= bytesBefore {
		t.Errorf("compaction did not shrink the file: %d -> %d bytes", bytesBefore, bytesAfter)
	}

	// Appends keep working on the swapped handle, and the idempotency
	// guard still covers versions the file has seen.
	if err := h.Append(recs[99]); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Counters(); n != 40 {
		t.Errorf("re-append of a seen version grew records to %d", n)
	}
	extra := bennett.VersionRecord{Version: 100, Terms: []bennett.Rank1Term{{Key: 3, W: []sparse.Entry{{Row: 7, Val: 0.5}}}}}
	if err := h.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	want := append(append([]bennett.VersionRecord(nil), recs[60:]...), extra)
	got := h2.LoadHistory()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reopened file holds %d records, want the %d live ones", len(got), len(want))
	}
}

// TestHistoryFileCompactionPolicy checks MaybeCompact's trigger: a
// floor covering less than a quarter of the version span is not worth
// a rewrite; one past it is.
func TestHistoryFileCompactionPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.cluh")
	rng := xrand.New(7)
	h, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, rec := range randomRecords(rng, 100) {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	h.SetFloor(10) // 10% droppable: not worth a rewrite
	if err := h.MaybeCompact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Counters(); n != 100 || h.Compactions() != 0 {
		t.Errorf("small floor triggered a rewrite: records=%d compactions=%d", n, h.Compactions())
	}

	h.SetFloor(5) // floors never regress
	h.SetFloor(25)
	if err := h.MaybeCompact(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Counters(); n != 75 || h.Compactions() != 1 {
		t.Errorf("quarter floor: records=%d compactions=%d, want 75/1", n, h.Compactions())
	}
}

// TestHistoryFileTornTail truncates the file mid-frame at every byte
// boundary of the final record and expects the scan to keep every
// complete predecessor, truncate the tail, and accept new appends.
func TestHistoryFileTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.cluh")
	rng := xrand.New(73)
	recs := randomRecords(rng, 6)

	h, err := OpenHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:5] {
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mark, _ := os.Stat(path)
	if err := h.Append(recs[5]); err != nil {
		t.Fatal(err)
	}
	h.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int(mark.Size()) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		h2, err := OpenHistory(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := h2.LoadHistory()
		if !reflect.DeepEqual(recs[:5], got) {
			t.Fatalf("cut %d: torn scan kept %d records, want the 5 complete ones", cut, len(got))
		}
		// The file must accept appends on the truncated boundary.
		if err := h2.Append(recs[5]); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		h2.Close()
		h3, err := OpenHistory(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := h3.LoadHistory(); !reflect.DeepEqual(recs, got) {
			t.Fatalf("cut %d: repaired file lost records", cut)
		}
		h3.Close()
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

// TestCodecV1BackCompat writes frame bodies at format version 1 (the
// plain-varint layout shipped before delta coding) and checks the
// public readers still parse them — old snapshot and spill files must
// survive a binary upgrade.
func TestCodecV1BackCompat(t *testing.T) {
	rng := xrand.New(89)
	g0 := randomGraph(30, 30, rng)
	s := streamAfter(t, core.CLUDE, g0, randomBatches(30, 6, 5, rng))
	defer s.Close()
	var solver *lu.Solver
	if !s.View(func(_ uint64, sv *lu.Solver) { solver = sv.Clone() }) {
		t.Fatal("no published state")
	}

	var buf bytes.Buffer
	c := newCW(&buf)
	c.header(factorsMagic, 1)
	writeFactorsBody(c, solver.F, 1)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if err := c.seal(); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFactors(&buf)
	if err != nil {
		t.Fatalf("reading v1 factors frame: %v", err)
	}
	if !reflect.DeepEqual(solver.F, f) {
		t.Error("v1 factors frame did not round-trip")
	}

	buf.Reset()
	c = newCW(&buf)
	c.header(solverMagic, 1)
	writeOrdering(c, solver.O)
	writeFactorsBody(c, solver.F, 1)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if err := c.seal(); err != nil {
		t.Fatal(err)
	}
	sv, err := ReadSolver(&buf)
	if err != nil {
		t.Fatalf("reading v1 solver frame: %v", err)
	}
	if !reflect.DeepEqual(solver, sv) {
		t.Error("v1 solver frame did not round-trip")
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
