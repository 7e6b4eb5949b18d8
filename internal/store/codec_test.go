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
	"testing"

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

// bfCheckpoint is st in the form a BF stream checkpointed before the
// stream became CLUDE-only: the static factors with no tracker and no
// structure union. The codec still reads it, so that recovery can
// refuse it by name.
func bfCheckpoint(st *core.StreamState) *core.StreamState {
	bf := *st
	bf.Algorithm, bf.Tracker, bf.StructUnion = core.BF, nil, nil
	return &bf
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
		c.str(string(st.Algorithm))
		c.f64(st.Alpha)
		c.u64(st.Version)
		c.u64(st.Seq)
		writeGraphBody(c, st.Graph)
		writeTracker(c, st.Tracker)
		writeOrdering(c, st.Ord)
		c.bool(true)
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
// the exported state, counters included, survives the disk format — and
// so does the BF form an older binary wrote, which recovery must read
// to refuse it.
func TestStreamStateRoundTrip(t *testing.T) {
	rng := xrand.New(17)
	g0 := randomGraph(32, 38, rng)
	batches := randomBatches(32, 6, 6, rng)
	s := streamAfter(t, g0, batches)
	state, err := s.ExportState()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*core.StreamState{state, bfCheckpoint(state)} {
		var buf bytes.Buffer
		if err := WriteStreamState(&buf, st); err != nil {
			t.Fatalf("%s: WriteStreamState: %v", st.Algorithm, err)
		}
		got, err := ReadStreamState(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadStreamState: %v", st.Algorithm, err)
		}
		if !reflect.DeepEqual(st, got) {
			t.Errorf("%s: stream state did not round-trip identically", st.Algorithm)
		}
	}
}

func TestReadStreamStateRejectsCorruption(t *testing.T) {
	rng := xrand.New(19)
	s := streamAfter(t, randomGraph(20, 24, rng), randomBatches(20, 3, 4, rng))
	state, err := s.ExportState()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
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
	c.str(string(st.Algorithm))
	c.f64(st.Alpha)
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
	s := streamAfter(t, randomGraph(16, 20, rng), randomBatches(16, 2, 3, rng))
	state, err := s.ExportState()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
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

// FuzzReadStreamState feeds arbitrary bytes to the CLUD decoder
// recovery runs on every checkpoint: it must never panic, and a frame it
// accepts must re-encode, in its own version's layout, to the same
// bytes; a version 2 frame must read with no kept growth and its
// container's size as the reference fill. The seeds are a CLUDE
// checkpoint and its older BF form, which must round-trip; and the
// hostile vertex
// counts, the same frames with factor kind 1 (the linked-list kind the
// format no longer has), with a nonzero retired linked-list counter and
// with a zero reference fill, which must not; and the same states in
// version 2's layout (before the kept-order fields), which must read
// with no kept growth and the container's size as the reference fill,
// while version 3 bytes relabelled version 2 are corrupt.
func FuzzReadStreamState(f *testing.F) {
	rng := xrand.New(59)
	g0 := randomGraph(12, 10, rng)
	batches := randomBatches(12, 3, 3, rng)
	s := streamAfter(f, g0, batches)
	clude, err := s.ExportState()
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	for _, state := range []*core.StreamState{bfCheckpoint(clude), clude} {
		alg := state.Algorithm
		var buf bytes.Buffer
		if err := WriteStreamState(&buf, state); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		got, err := ReadStreamState(bytes.NewReader(data))
		var again bytes.Buffer
		if err == nil {
			err = WriteStreamState(&again, got)
		}
		if err != nil || !bytes.Equal(again.Bytes(), data) {
			f.Fatalf("%s: checkpoint did not round-trip bit-identically (%v)", alg, err)
		}
		kind1 := withByte(f, data, stateFactorKindAt(f, state), 1)
		// Before the trailer come the second retired counter, a zero
		// varint, and version 3's two fields.
		var v [binary.MaxVarintLen64]byte
		tail := binary.PutVarint(v[:], int64(state.Stats.KeptGrowths)) + binary.PutVarint(v[:], int64(state.Stats.RefFill))
		retired := withByte(f, data, len(data)-5-tail, 2)
		zeroRef := *state
		zeroRef.Stats.RefFill = 0
		var zbuf bytes.Buffer
		if err := WriteStreamState(&zbuf, &zeroRef); err != nil {
			f.Fatal(err)
		}
		for name, bad := range map[string][]byte{"factor kind 1": kind1, "retired counter": retired, "zero reference fill": zbuf.Bytes()} {
			if !errors.Is(errorOf(f, bad), ErrCorrupt) {
				f.Fatalf("%s: a checkpoint with a %s did not read as ErrCorrupt", alg, name)
			}
			f.Add(bad)
		}
		relabelled := bytes.Clone(data)
		relabelled[len(stateMagic)] = 2
		if !errors.Is(errorOf(f, relabelled), ErrCorrupt) {
			f.Fatalf("%s: version 3 bytes labelled version 2 did not read as ErrCorrupt", alg)
		}
		f.Add(relabelled)
		var v2 bytes.Buffer
		if err := writeStreamState(&v2, state, 2); err != nil {
			f.Fatal(err)
		}
		old, err := ReadStreamState(bytes.NewReader(v2.Bytes()))
		if err != nil {
			f.Fatalf("%s: a version 2 checkpoint was refused: %v", alg, err)
		}
		want := *state
		want.Stats.KeptGrowths, want.Stats.RefFill = 0, state.Static.Size()
		if !reflect.DeepEqual(old, &want) {
			f.Fatalf("%s: a version 2 checkpoint read as another state", alg)
		}
		f.Add(v2.Bytes())
		f.Add(data)
		f.Add(data[:len(data)/2])
		if alg == core.CLUDE {
			f.Add(hostileVertexCount(f, data, state, true))
			f.Add(hostileVertexCount(f, data, state, false))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadStreamState(bytes.NewReader(data))
		if err != nil {
			return
		}
		version := data[len(stateMagic)]
		if version == 2 && (st.Stats.KeptGrowths != 0 || st.Static != nil && st.Stats.RefFill != st.Static.Size()) {
			t.Fatalf("a version 2 frame read as %d kept growths over a reference fill of %d", st.Stats.KeptGrowths, st.Stats.RefFill)
		}
		var buf bytes.Buffer
		if err := writeStreamState(&buf, st, version); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		// The reader stops at the trailer; bytes after it are not the
		// frame's.
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("an accepted frame re-encodes to different bytes")
		}
	})
}

func errorOf(t testing.TB, data []byte) error {
	t.Helper()
	_, err := ReadStreamState(bytes.NewReader(data))
	return err
}
