package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
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

// streamAfter runs a stream of the given algorithm over the batches and
// returns it (caller closes).
func streamAfter(t testing.TB, alg core.Algorithm, g0 *graph.Graph, batches [][]graph.EdgeEvent) *core.Stream {
	t.Helper()
	s, err := core.NewStream(core.StreamConfig{
		Algorithm: alg,
		Alpha:     0.9,
		Initial:   g0,
		Derive:    graph.RWRMatrix(0.85),
	})
	if err != nil {
		t.Fatalf("%s: NewStream: %v", alg, err)
	}
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("%s: batch %d: %v", alg, i, err)
		}
	}
	return s
}

// TestFactorsRoundTripAcrossStrategies is the codec property test the
// issue asks for: WriteFactors → ReadFactors must round-trip
// bit-identically for the containers every strategy produces after a
// randomized Bennett update sequence — StaticFactors for BF/CLUDE,
// DynamicFactors (with live restructuring state) for INC/CINC.
func TestFactorsRoundTripAcrossStrategies(t *testing.T) {
	rng := xrand.New(41)
	g0 := randomGraph(36, 40, rng)
	batches := randomBatches(36, 8, 6, rng)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		s := streamAfter(t, alg, g0, batches)
		state, err := s.ExportState()
		s.Close()
		if err != nil {
			t.Fatalf("%s: ExportState: %v", alg, err)
		}
		var f lu.Factors
		if state.Dyn != nil {
			f = state.Dyn
		} else {
			f = state.Static
		}
		var buf bytes.Buffer
		if err := WriteFactors(&buf, f); err != nil {
			t.Fatalf("%s: WriteFactors: %v", alg, err)
		}
		got, err := ReadFactors(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadFactors: %v", alg, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: factors did not round-trip bit-identically", alg)
		}
	}
}

func TestFactorsCorruptionDetected(t *testing.T) {
	rng := xrand.New(7)
	g0 := randomGraph(24, 30, rng)
	s := streamAfter(t, core.CLUDE, g0, nil)
	state, err := s.ExportState()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFactors(&buf, state.Static); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte in the middle: either a structural failure or the
	// checksum must catch it — silence is the only wrong answer.
	data[len(data)/2] ^= 0x40
	if _, err := ReadFactors(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted factors frame was accepted")
	}
	// Truncation likewise.
	if _, err := ReadFactors(bytes.NewReader(data[:len(data)*2/3])); err == nil {
		t.Fatal("truncated factors frame was accepted")
	}
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

func TestSolverRoundTripSolvesIdentically(t *testing.T) {
	rng := xrand.New(13)
	g0 := randomGraph(30, 35, rng)
	for _, alg := range []core.Algorithm{core.CLUDE, core.CINC} {
		s := streamAfter(t, alg, g0, randomBatches(30, 4, 5, rng))
		var buf bytes.Buffer
		var want []float64
		b := make([]float64, 30)
		b[3] = 0.15
		s.View(func(_ uint64, sv *lu.Solver) {
			if err := WriteSolver(&buf, sv); err != nil {
				t.Fatalf("%s: WriteSolver: %v", alg, err)
			}
			want = sv.Solve(b)
		})
		s.Close()
		sv, err := ReadSolver(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadSolver: %v", alg, err)
		}
		got := sv.Solve(b)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: restored solver's solution differs bit-wise", alg)
		}
	}
}

// FuzzReadSolver feeds arbitrary bytes to the CLUS decoder a spill
// reload runs: it must never panic, and a frame it accepts must
// re-encode to one that decodes to the same solver. The seeds, a static
// (CLUDE) and a dynamic (CINC) solver, must round-trip bit for bit.
func FuzzReadSolver(f *testing.F) {
	encode := func(t testing.TB, s *lu.Solver) []byte {
		var buf bytes.Buffer
		if err := WriteSolver(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	rng := xrand.New(53)
	g0 := randomGraph(12, 10, rng)
	batches := randomBatches(12, 3, 3, rng)
	for _, alg := range []core.Algorithm{core.CLUDE, core.CINC} {
		s := streamAfter(f, alg, g0, batches)
		var data []byte
		s.View(func(_ uint64, sv *lu.Solver) {
			data = encode(f, sv)
			got, err := ReadSolver(bytes.NewReader(data))
			if err != nil || !reflect.DeepEqual(got.F, sv.F) || !reflect.DeepEqual(got.O, sv.O) || !bytes.Equal(encode(f, got), data) {
				f.Fatalf("%s: solver did not round-trip bit-identically (%v)", alg, err)
			}
		})
		s.Close()
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSolver(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := ReadSolver(bytes.NewReader(encode(t, s)))
		if err != nil || !reflect.DeepEqual(again.F, s.F) || !reflect.DeepEqual(again.O, s.O) {
			t.Fatalf("an accepted frame did not survive re-encoding (%v)", err)
		}
	})
}

// TestStreamStateRoundTrip pins the full-snapshot codec: every field of
// the exported state, counters included, survives the disk format.
func TestStreamStateRoundTrip(t *testing.T) {
	rng := xrand.New(17)
	g0 := randomGraph(32, 38, rng)
	batches := randomBatches(32, 6, 6, rng)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		s := streamAfter(t, alg, g0, batches)
		state, err := s.ExportState()
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteStreamState(&buf, state); err != nil {
			t.Fatalf("%s: WriteStreamState: %v", alg, err)
		}
		got, err := ReadStreamState(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadStreamState: %v", alg, err)
		}
		if !reflect.DeepEqual(state, got) {
			t.Errorf("%s: stream state did not round-trip identically", alg)
		}
	}
}

func TestReadStreamStateRejectsCorruption(t *testing.T) {
	rng := xrand.New(19)
	s := streamAfter(t, core.CINC, randomGraph(20, 24, rng), randomBatches(20, 3, 4, rng))
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
	c.header(stateMagic, codecVersion)
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
	s := streamAfter(t, core.CLUDE, randomGraph(16, 20, rng), randomBatches(16, 2, 3, rng))
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
// accepts must re-encode to the same bytes. The seeds are the four
// algorithms' checkpoints, which must round-trip, and the hostile
// vertex counts, which must not.
func FuzzReadStreamState(f *testing.F) {
	rng := xrand.New(59)
	g0 := randomGraph(12, 10, rng)
	batches := randomBatches(12, 3, 3, rng)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		s := streamAfter(f, alg, g0, batches)
		state, err := s.ExportState()
		s.Close()
		if err != nil {
			f.Fatal(err)
		}
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
		var buf bytes.Buffer
		if err := WriteStreamState(&buf, st); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		// The reader stops at the trailer; bytes after it are not the
		// frame's.
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("an accepted frame re-encodes to different bytes")
		}
	})
}

func errorOf(t *testing.T, data []byte) error {
	t.Helper()
	_, err := ReadStreamState(bytes.NewReader(data))
	return err
}
