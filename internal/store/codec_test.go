package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// randomGraph builds a connected-ish undirected graph on n vertices.
func randomGraph(n, extra int, rng *xrand.Rand) *graph.Graph {
	var es []graph.Edge
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{From: rng.Intn(v), To: v})
	}
	for k := 0; k < extra; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	return graph.New(n, false, es)
}

// randomBatches produces batchCount random edge-delta batches over n
// vertices: a mix of inserts and deletes, some of them no-ops, i.e. the
// randomized Bennett update sequences the codec tests exercise the
// containers with.
func randomBatches(n, batchCount, batchSize int, rng *xrand.Rand) [][]graph.EdgeEvent {
	out := make([][]graph.EdgeEvent, batchCount)
	for b := range out {
		evs := make([]graph.EdgeEvent, 0, batchSize)
		for k := 0; k < batchSize; k++ {
			op := graph.EdgeInsert
			if rng.Float64() < 0.4 {
				op = graph.EdgeDelete
			}
			evs = append(evs, graph.EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: op})
		}
		out[b] = evs
	}
	return out
}

// streamAfter runs a stream over the batches and returns it (caller
// closes).
func streamAfter(t testing.TB, g0 *graph.Graph, batches [][]graph.EdgeEvent) *core.Stream {
	t.Helper()
	s, err := core.NewStream(core.StreamConfig{
		Alpha:   0.9,
		Initial: g0,
		Derive:  graph.RWRMatrix(0.85),
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return s
}

// stateAfter is the exported state of a stream run over the batches.
func stateAfter(t testing.TB, g0 *graph.Graph, batches [][]graph.EdgeEvent) *core.StreamState {
	t.Helper()
	s := streamAfter(t, g0, batches)
	defer s.Close()
	st, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// encodeSolver is WriteSolver into a fresh buffer.
func encodeSolver(t testing.TB, s *lu.Solver) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSolver(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveSolver runs a stream over the batches and returns an independent
// clone of its final solver.
func liveSolver(t testing.TB, g0 *graph.Graph, batches [][]graph.EdgeEvent) *lu.Solver {
	t.Helper()
	s := streamAfter(t, g0, batches)
	defer s.Close()
	var sv *lu.Solver
	s.View(func(_ uint64, live *lu.Solver) { sv = live.Clone() })
	return sv
}

// runSolver runs core.Run's alg over g0 and the graphs the batches lead
// to, and returns an independent clone of the last one's solver.
func runSolver(t testing.TB, alg core.Algorithm, g0 *graph.Graph, batches [][]graph.EdgeEvent) *lu.Solver {
	t.Helper()
	snaps := []*graph.Graph{g0}
	b := graph.NewBuilderFrom(g0)
	for _, evs := range batches {
		if _, err := b.ApplyBatch(evs); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b.Graph())
	}
	egs, err := graph.NewEGS(snaps)
	if err != nil {
		t.Fatal(err)
	}
	var sv *lu.Solver
	if _, err := core.Run(graph.DeriveEMS(egs, graph.RWRMatrix(0.85)), alg, core.Options{
		Alpha: 0.9, Workers: 1,
		OnFactors: func(i int, s *lu.Solver) {
			if i == egs.Len()-1 {
				sv = s.Clone()
			}
		},
	}); err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return sv
}

// TestFactorsRoundTripAcrossStrategies: WriteSolver → ReadSolver
// round-trips bit-identically the static factors BF's and CLUDE's runs
// hold after a randomized Bennett update sequence, and refuses
// INC/CINC's linked lists, which have no format.
func TestFactorsRoundTripAcrossStrategies(t *testing.T) {
	rng := xrand.New(41)
	g0 := randomGraph(36, 40, rng)
	batches := randomBatches(36, 8, 6, rng)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		sv := runSolver(t, alg, g0, batches)
		var buf bytes.Buffer
		err := WriteSolver(&buf, sv)
		if alg == core.INC || alg == core.CINC {
			if err == nil {
				t.Errorf("%s: WriteSolver encoded linked-list factors", alg)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: WriteSolver: %v", alg, err)
		}
		got, err := ReadSolver(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadSolver: %v", alg, err)
		}
		if !reflect.DeepEqual(sv.F, got.F) || !reflect.DeepEqual(sv.O, got.O) {
			t.Errorf("%s: factors did not round-trip bit-identically", alg)
		}
	}
}

func TestFactorsCorruptionDetected(t *testing.T) {
	rng := xrand.New(7)
	g0 := randomGraph(24, 30, rng)
	data := encodeSolver(t, liveSolver(t, g0, nil))
	// Flip one byte in the middle: either a structural failure or the
	// checksum must catch it — silence is the only wrong answer.
	data[len(data)/2] ^= 0x40
	if _, err := ReadSolver(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted solver frame was accepted")
	}
	// Truncation likewise.
	if _, err := ReadSolver(bytes.NewReader(data[:len(data)*2/3])); err == nil {
		t.Fatal("truncated solver frame was accepted")
	}
}

// withByte returns the sealed frame data with the byte at offset p — a
// zero varint, such as the static factor-kind tag — set to b and the
// checksum recomputed, so that byte is the only thing wrong with it.
func withByte(t testing.TB, data []byte, p int, b byte) []byte {
	t.Helper()
	if data[p] != 0 {
		t.Fatalf("byte %d is %d, not a zero varint", p, data[p])
	}
	payload := bytes.Clone(data[:len(data)-4])
	payload[p] = b
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
}

// prefixLen is the length of what fill writes into a frame after its
// header: the offset of the next field.
func prefixLen(t testing.TB, magic string, fill func(c *cw)) int {
	t.Helper()
	var pre bytes.Buffer
	c := newCW(&pre)
	c.header(magic, codecVersion)
	fill(c)
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return pre.Len()
}

// TestGraphRoundTrip: the graph body a checkpoint embeds rebuilds the
// directed and the undirected graph field for field.
func TestGraphRoundTrip(t *testing.T) {
	rng := xrand.New(11)
	for _, directed := range []bool{false, true} {
		g := graph.New(20, directed, []graph.Edge{{From: 0, To: 1}, {From: 3, To: 2}, {From: 19, To: 4}, {From: rng.Intn(20), To: rng.Intn(20)}})
		var buf bytes.Buffer
		w := newCW(&buf)
		writeGraphBody(w, g)
		if err := w.seal(); err != nil {
			t.Fatal(err)
		}
		r := newCR(bytes.NewReader(buf.Bytes()))
		gb := readGraphBody(r)
		if err := r.verify(); err != nil {
			t.Fatal(err)
		}
		if got := graph.New(gb.n, gb.directed, gb.edges); !reflect.DeepEqual(g, got) {
			t.Errorf("directed=%v: graph did not round-trip identically", directed)
		}
	}
}

// stateFactorKindAt is the offset of the factor-kind tag in st's CLUD
// frame.
func stateFactorKindAt(t testing.TB, st *core.StreamState) int {
	t.Helper()
	return prefixLen(t, stateMagic, func(c *cw) {
		c.u64(st.Version)
		c.u64(st.Seq)
		writeGraphBody(c, st.Graph)
		writeTrackerBody(c, st.Tracker)
		writeOrdering(c, st.Ord)
	})
}

func TestSolverRoundTripSolvesIdentically(t *testing.T) {
	rng := xrand.New(13)
	g0 := randomGraph(30, 35, rng)
	live := liveSolver(t, g0, randomBatches(30, 4, 5, rng))
	bf := runSolver(t, core.BF, g0, randomBatches(30, 4, 5, rng))
	for _, c := range []struct {
		name string
		want *lu.Solver
	}{{"CLUDE stream", live}, {"BF run", bf}} {
		sv, err := ReadSolver(bytes.NewReader(encodeSolver(t, c.want)))
		if err != nil {
			t.Fatalf("%s: ReadSolver: %v", c.name, err)
		}
		b := make([]float64, 30)
		b[3] = 0.15
		if !reflect.DeepEqual(c.want.Solve(b), sv.Solve(b)) {
			t.Errorf("%s: restored solver's solution differs bit-wise", c.name)
		}
	}
}

// lazyCrossViews holds a decoded container to what the codec promises
// of the cross views: it decodes none, and a writer that builds them on
// a clone (lu's EnsureCrossViews) gets L by row and U by column exactly
// as sorting the primary arrays' entries lists them, while the clone
// still solves bit for bit as the decoded container does.
func lazyCrossViews(t testing.TB, s *lu.Solver) {
	t.Helper()
	f := s.F.(*lu.StaticFactors)
	if f.LRowPtr != nil || f.LRowCols != nil || f.LRowPos != nil || f.UColPtr != nil || f.UColRows != nil || f.UColPos != nil {
		t.Fatal("a decoded container holds cross views")
	}
	c := f.Clone().(*lu.StaticFactors)
	c.EnsureCrossViews()
	n := f.Dim()
	// scan lists every (minor, major, position) of the compressed
	// structure ptr/idx sorted by minor index, then major: the other
	// orientation, by a sort rather than a counting pass.
	scan := func(ptr, idx []int) (tPtr, tIdx, tPos []int) {
		type entry struct{ k, j, p int }
		var es []entry
		for j := 0; j < n; j++ {
			for p := ptr[j]; p < ptr[j+1]; p++ {
				es = append(es, entry{idx[p], j, p})
			}
		}
		slices.SortFunc(es, func(a, b entry) int { return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.j, b.j)) })
		tPtr = make([]int, n+1)
		for _, e := range es {
			tPtr[e.k+1]++
			tIdx, tPos = append(tIdx, e.j), append(tPos, e.p)
		}
		for k := 0; k < n; k++ {
			tPtr[k+1] += tPtr[k]
		}
		return tPtr, tIdx, tPos
	}
	lp, lc, lpos := scan(f.LColPtr, f.LRowIdx)
	up, ur, upos := scan(f.URowPtr, f.UColIdx)
	for k, pair := range [6][2][]int{{c.LRowPtr, lp}, {c.LRowCols, lc}, {c.LRowPos, lpos}, {c.UColPtr, up}, {c.UColRows, ur}, {c.UColPos, upos}} {
		if !slices.Equal(pair[0], pair[1]) {
			t.Fatalf("cross view %d built on demand is %v, a dense scan lists %v", k, pair[0], pair[1])
		}
	}
	want, got := make([]float64, n), make([]float64, n)
	for i := range want {
		want[i] = float64(i%7) - 3
		got[i] = want[i]
	}
	f.SolveInPlace(want)
	c.SolveInPlace(got)
	if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatal("building the cross views moved the solution")
	}
}

// FuzzReadSolver feeds arbitrary bytes to the CLUS decoder a spill
// reload runs: it must never panic, and a frame it accepts must
// re-encode to one that decodes to the same solver and hold no cross
// views until a writer builds them (lazyCrossViews). The seeds, a CLUDE
// stream's and a BF run's solver, must round-trip bit for bit; the same
// frames with factor kind 1 (the linked-list kind the format no longer
// has) must read as ErrCorrupt.
func FuzzReadSolver(f *testing.F) {
	rng := xrand.New(53)
	g0 := randomGraph(12, 10, rng)
	batches := randomBatches(12, 3, 3, rng)
	for _, sv := range []*lu.Solver{liveSolver(f, g0, batches), runSolver(f, core.BF, g0, batches)} {
		data := encodeSolver(f, sv)
		got, err := ReadSolver(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(got.F, sv.F) || !reflect.DeepEqual(got.O, sv.O) || !bytes.Equal(encodeSolver(f, got), data) {
			f.Fatalf("solver did not round-trip bit-identically (%v)", err)
		}
		lazyCrossViews(f, got)
		kind1 := withByte(f, data, prefixLen(f, solverMagic, func(c *cw) { writeOrdering(c, sv.O) }), 1)
		if _, err := ReadSolver(bytes.NewReader(kind1)); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("a factor-kind-1 frame read as %v, want ErrCorrupt", err)
		}
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped)
		f.Add(kind1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSolver(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadSolver(bytes.NewReader(encodeSolver(t, s)))
		if err != nil || !reflect.DeepEqual(again.F, s.F) || !reflect.DeepEqual(again.O, s.O) {
			t.Fatalf("an accepted frame did not survive re-encoding (%v)", err)
		}
		lazyCrossViews(t, s)
	})
}

// TestStreamStateRoundTrip pins the full-snapshot codec: every field of
// the exported state, counters included, survives the disk format; the
// same state in version 2's and version 3's layouts reads to it too
// (version 2 with no kept growth and the container's size as the
// reference fill); and the BF form an older binary wrote is refused by
// name, not as corruption.
func TestStreamStateRoundTrip(t *testing.T) {
	rng := xrand.New(17)
	g0 := randomGraph(32, 38, rng)
	batches := randomBatches(32, 6, 6, rng)
	state := stateAfter(t, g0, batches)
	var buf bytes.Buffer
	if err := WriteStreamState(&buf, state); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadStreamState(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(state, got) {
		t.Fatalf("stream state did not round-trip identically (%v)", err)
	}
	for _, version := range []byte{2, 3} {
		var old bytes.Buffer
		if err := writeOldStreamState(&old, state, version, core.CLUDE); err != nil {
			t.Fatal(err)
		}
		want := *state
		if version == 2 {
			want.Stats.KeptGrowths, want.Stats.RefFill = 0, state.Static.Size()
		}
		if got, err := ReadStreamState(bytes.NewReader(old.Bytes())); err != nil || !reflect.DeepEqual(&want, got) {
			t.Errorf("a version %d checkpoint read as another state (%v)", version, err)
		}
		old.Reset()
		if err := writeOldStreamState(&old, state, version, core.BF); err != nil {
			t.Fatal(err)
		}
		if err := errorOf(t, old.Bytes()); !errors.Is(err, errForeignCheckpoint) || !strings.Contains(err.Error(), "BF") {
			t.Errorf("a version %d BF checkpoint read as %v, want a refusal naming BF", version, err)
		}
	}
}

func TestReadStreamStateRejectsCorruption(t *testing.T) {
	rng := xrand.New(19)
	state := stateAfter(t, randomGraph(20, 24, rng), randomBatches(20, 3, 4, rng))
	var buf bytes.Buffer
	if err := WriteStreamState(&buf, state); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 2, len(data) / 2, 6} {
		if _, err := ReadStreamState(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0x01
	if _, err := ReadStreamState(bytes.NewReader(flipped)); err == nil {
		t.Error("bit flip accepted")
	}
	if !errors.Is(errorOf(t, flipped), ErrCorrupt) {
		t.Error("corruption not reported as ErrCorrupt")
	}
}

// hostileVertexCount re-frames a valid checkpoint with its graph's
// vertex count replaced by 2⁴⁰ and resealed, so only the count is
// wrong. With tail false the frame ends right after the count, an empty
// edge list, and the trailer. Building that graph would need ~24 TiB.
func hostileVertexCount(t testing.TB, data []byte, st *core.StreamState, tail bool) []byte {
	t.Helper()
	var pre bytes.Buffer
	c := newCW(&pre)
	c.header(stateMagic, stateVersion)
	c.u64(st.Version)
	c.u64(st.Seq)
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	p := pre.Len()
	var v [binary.MaxVarintLen64]byte
	old := binary.PutVarint(v[:], int64(st.Graph.N()))
	if !bytes.Equal(data[:p+old], append(pre.Bytes(), v[:old]...)) {
		t.Fatal("frame prefix does not match the re-encoded fields")
	}
	payload := append(pre.Bytes(), v[:binary.PutVarint(v[:], 1<<40)]...)
	if tail {
		payload = append(payload, data[p+old:len(data)-4]...)
	} else {
		payload = append(payload, 0, 0) // undirected, no edges
	}
	return binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
}

// TestReadStreamStateRejectsHostileVertexCount: a sealed checkpoint
// whose graph claims 2⁴⁰ vertices is corrupt, not an allocation — the
// count must match the ordering the frame carries before any graph is
// built, so recovery can fall back to an older checkpoint.
func TestReadStreamStateRejectsHostileVertexCount(t *testing.T) {
	rng := xrand.New(23)
	state := stateAfter(t, randomGraph(16, 20, rng), randomBatches(16, 2, 3, rng))
	var buf bytes.Buffer
	if err := WriteStreamState(&buf, state); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []bool{true, false} {
		if !errors.Is(errorOf(t, hostileVertexCount(t, buf.Bytes(), state, tail)), ErrCorrupt) {
			t.Errorf("tail=%v: a 2^40-vertex graph was not reported as ErrCorrupt", tail)
		}
	}
}

// encodeState is a checkpoint of st in the layout of the given version,
// under the CLUDE name before version 4.
func encodeState(t testing.TB, st *core.StreamState, version byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := WriteStreamState(&buf, st)
	if version < stateVersion {
		buf.Reset()
		err = writeOldStreamState(&buf, st, version, core.CLUDE)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// misSized returns big with its tracker's patterns, or with container
// its factor container, taken from small, a stream's state over fewer
// vertices: a frame of it seals and parses, but holds a pattern that is
// not n×n for its graph's n.
func misSized(big, small *core.StreamState, container bool) *core.StreamState {
	bad := *big
	if container {
		bad.Static = small.Static
		return &bad
	}
	tr := *big.Tracker
	tr.Inter, tr.Union = small.Tracker.Inter, small.Tracker.Union
	bad.Tracker = &tr
	return &bad
}

// TestReadStreamStateRejectsMisSizedPatterns: a sealed checkpoint of a
// 16-vertex graph whose tracker patterns (in versions 2 and 3, its
// structure union too) or factor container are 8×8 is corrupt, in every
// layout, so recovery falls back to an older checkpoint; a stream
// restored from one would index past the patterns on its first batch.
// RestoreStream refuses such a state too.
func TestReadStreamStateRejectsMisSizedPatterns(t *testing.T) {
	rng := xrand.New(67)
	big := stateAfter(t, randomGraph(16, 20, rng), randomBatches(16, 2, 3, rng))
	small := stateAfter(t, randomGraph(8, 10, rng), randomBatches(8, 2, 3, rng))
	cfg := core.StreamConfig{Alpha: 0.9, Derive: graph.RWRMatrix(0.85)}
	for _, container := range []bool{false, true} {
		bad := misSized(big, small, container)
		for _, version := range []byte{2, 3, stateVersion} {
			if err := errorOf(t, encodeState(t, bad, version)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("container=%v: a version %d frame with 8×8 patterns under a 16-vertex graph read as %v, want ErrCorrupt", container, version, err)
			}
		}
		if s, err := core.RestoreStream(cfg, bad); err == nil {
			s.Close()
			t.Errorf("container=%v: RestoreStream accepted 8×8 patterns under a 16-vertex graph", container)
		}
	}
}

// FuzzReadStreamState feeds arbitrary bytes to the CLUD decoder
// recovery runs on every checkpoint: it must never panic; a version 4
// frame it accepts must re-encode to the same bytes, and a version 2 or
// 3 frame must read to the same state as its version 4 re-encoding; and
// an accepted frame must restore, under its own α, to a stream that
// applies a batch without panicking. The seeds are a checkpoint in the
// three layouts, which must read; the hostile vertex counts; and frames
// that must not read: with factor kind 1 (the linked-list kind the
// format no longer has), a zero reference fill, a 12-vertex stream's
// tracker patterns or container under a 16-vertex graph, version 4
// bytes labelled
// version 3, and older frames whose extra fields contradict the
// tracker (a nonzero retired counter, another structure union, α or
// cluster count) or that name BF.
func FuzzReadStreamState(f *testing.F) {
	rng := xrand.New(59)
	state := stateAfter(f, randomGraph(12, 10, rng), randomBatches(12, 3, 3, rng))
	data := encodeState(f, state, stateVersion)
	for _, version := range []byte{2, 3, stateVersion} {
		old := encodeState(f, state, version)
		got, err := ReadStreamState(bytes.NewReader(old))
		want := *state
		if version == 2 {
			want.Stats.KeptGrowths, want.Stats.RefFill = 0, state.Static.Size()
		}
		if err != nil || !reflect.DeepEqual(got, &want) {
			f.Fatalf("a version %d checkpoint read as another state (%v)", version, err)
		}
		f.Add(old)
	}
	f.Add(data[:len(data)/2])
	f.Add(hostileVertexCount(f, data, state, true))
	f.Add(hostileVertexCount(f, data, state, false))

	corrupt := map[string][]byte{"factor kind 1": withByte(f, data, stateFactorKindAt(f, state), 1)}
	zeroRef := *state
	zeroRef.Stats.RefFill = 0
	corrupt["zero reference fill"] = encodeState(f, &zeroRef, stateVersion)
	big := stateAfter(f, randomGraph(16, 20, rng), randomBatches(16, 2, 3, rng))
	corrupt["smaller graph's tracker patterns"] = encodeState(f, misSized(big, state, false), stateVersion)
	corrupt["smaller graph's container"] = encodeState(f, misSized(big, state, true), stateVersion)
	relabelled := bytes.Clone(data)
	relabelled[len(stateMagic)] = 3
	corrupt["version 4 layout"] = relabelled
	// The second retired counter, a zero varint, stands before version
	// 3's two fields and the trailer.
	v3 := encodeState(f, state, 3)
	var v [binary.MaxVarintLen64]byte
	tail := binary.PutVarint(v[:], int64(state.Stats.KeptGrowths)) + binary.PutVarint(v[:], int64(state.Stats.RefFill))
	corrupt["retired counter"] = withByte(f, v3, len(v3)-5-tail, 2)
	other := stateAfter(f, randomGraph(12, 14, rng), randomBatches(12, 3, 3, rng))
	for name, edit := range map[string]func(tr *cluster.TrackerState){
		"structure union": func(tr *cluster.TrackerState) { tr.Union = other.Tracker.Union },
		"alpha":           func(tr *cluster.TrackerState) { tr.Alpha = 0.5 },
		"cluster count":   func(tr *cluster.TrackerState) { tr.Clusters++ },
	} {
		// The old layout restates the tracker: one side of it edited.
		tr := *state.Tracker
		edit(&tr)
		var buf bytes.Buffer
		c := newCW(&buf)
		writeTrackerBody(c, &tr)
		if err := c.w.Flush(); err != nil {
			f.Fatal(err)
		}
		var orig bytes.Buffer
		c = newCW(&orig)
		writeTrackerBody(c, state.Tracker)
		if err := c.w.Flush(); err != nil {
			f.Fatal(err)
		}
		at := bytes.Index(v3, orig.Bytes())
		payload := slices.Concat(v3[:at], buf.Bytes(), v3[at+orig.Len():len(v3)-4])
		corrupt[name] = binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
	}
	for name, bad := range corrupt {
		if !errors.Is(errorOf(f, bad), ErrCorrupt) {
			f.Fatalf("a checkpoint with a %s did not read as ErrCorrupt", name)
		}
		f.Add(bad)
	}
	var bf bytes.Buffer
	if err := writeOldStreamState(&bf, state, 2, core.BF); err != nil {
		f.Fatal(err)
	}
	if !errors.Is(errorOf(f, bf.Bytes()), errForeignCheckpoint) {
		f.Fatal("a BF checkpoint was not refused by name")
	}
	f.Add(bf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadStreamState(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteStreamState(&buf, st); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		if data[len(stateMagic)] == stateVersion {
			// The reader stops at the trailer; bytes after it are not
			// the frame's.
			if !bytes.HasPrefix(data, buf.Bytes()) {
				t.Fatal("an accepted frame re-encodes to different bytes")
			}
		} else if again, err := ReadStreamState(&buf); err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("a version %d frame reads to another state than its version %d re-encoding (%v)", data[len(stateMagic)], stateVersion, err)
		}
		s, err := core.RestoreStream(core.StreamConfig{Alpha: st.Tracker.Alpha, Derive: graph.RWRMatrix(0.85)}, st)
		if err != nil {
			t.Fatalf("an accepted frame does not restore: %v", err)
		}
		defer s.Close()
		var batch []graph.EdgeEvent
		if n := st.Graph.N(); n > 1 {
			batch = []graph.EdgeEvent{{From: 0, To: n - 1, Op: graph.EdgeInsert}, {From: n - 1, To: n / 2, Op: graph.EdgeDelete}}
		}
		s.Apply(batch) // a numerical failure is an outcome; a panic is not
	})
}

func errorOf(t testing.TB, data []byte) error {
	t.Helper()
	_, err := ReadStreamState(bytes.NewReader(data))
	return err
}
