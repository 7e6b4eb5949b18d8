package graph_test

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// FuzzReadDeltas hammers the egsdeltas text parser with hostile input:
// the contract is that it returns an error — it never panics, and it
// never allocates proportionally to unproven header counts. The seed
// corpus runs under plain `go test`; `go test -fuzz=FuzzReadDeltas
// ./internal/graph` explores from there.
func FuzzReadDeltas(f *testing.F) {
	// A well-formed document, via the writer itself.
	g := graph.New(5, false, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}})
	var buf bytes.Buffer
	if err := graph.WriteDeltas(&buf, g, [][]graph.EdgeEvent{
		{{From: 1, To: 2, Op: graph.EdgeInsert}},
		{{From: 0, To: 1, Op: graph.EdgeDelete}, {From: 3, To: 4, Op: graph.EdgeUpdate}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	// Hostile shapes: truncations, absurd counts, negative counts,
	// malformed ops and endpoints, directed header, empty input.
	seeds := []string{
		"",
		"egsdeltas",
		"egsdeltas 5 2 true\n",
		"egsdeltas 5 2 true\ninit 99999999999999999\n",
		"egsdeltas 99999999999 1 false\ninit 0\n",
		"egsdeltas 5 99999999999 true\ninit 0\n",
		"egsdeltas 5 2 true\ninit -3\n",
		"egsdeltas 5 2 true\ninit 1\n0 1\nbatch 1 -9\n",
		"egsdeltas 5 2 true\ninit 1\n0 1\nbatch 1 1\n? 0 1\n",
		"egsdeltas 5 2 true\ninit 1\n0 1\nbatch 1 1\n+ 7 1\n",
		"egsdeltas 5 2 true\ninit 1\n0 1\nbatch 2 0\n",
		"egsdeltas 5 2 true\ninit 1\n0 1 9\n",
		"egsdeltas -1 2 true\ninit 0\n",
		"egsdeltas 3 1 maybe\ninit 0\n",
		"egsdeltas 3 1 true\ninit 1\n0\n",
		"egsdeltas 2 2 false\ninit 0\nbatch 1 1\n+ 0 1\n+ 1 0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	// Keep fuzz-discovered headers from legitimately allocating
	// gigabytes: the cap is a tunable precisely so hostile-input tests
	// can lower it without weakening the panics-never contract.
	savedV, savedT := graph.MaxTextVertices, graph.MaxTextSnapshots
	graph.MaxTextVertices = 1 << 12
	graph.MaxTextSnapshots = 1 << 10
	f.Cleanup(func() {
		graph.MaxTextVertices, graph.MaxTextSnapshots = savedV, savedT
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		initial, batches, err := graph.ReadDeltas(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must round-trip through the writer and parse
		// again to the same shape.
		var out bytes.Buffer
		if err := graph.WriteDeltas(&out, initial, batches); err != nil {
			t.Fatalf("WriteDeltas on accepted input: %v", err)
		}
		initial2, batches2, err := graph.ReadDeltas(&out)
		if err != nil {
			t.Fatalf("re-parse of round-tripped input: %v", err)
		}
		if initial2.N() != initial.N() || initial2.NumEdges() != initial.NumEdges() || len(batches2) != len(batches) {
			t.Fatalf("round trip changed shape: n %d->%d, edges %d->%d, batches %d->%d",
				initial.N(), initial2.N(), initial.NumEdges(), initial2.NumEdges(), len(batches), len(batches2))
		}
	})
}

// FuzzReadEGS gives the snapshot-format parser the same treatment (the
// two share the hardened scanning core).
func FuzzReadEGS(f *testing.F) {
	g0 := graph.New(4, true, []graph.Edge{{From: 0, To: 1}})
	g1 := graph.New(4, true, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	egs, err := graph.NewEGS([]*graph.Graph{g0, g1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEGS(&buf, egs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		"",
		"egs 4 99999999999 true\n",
		"egs 99999999999 1 true\nsnapshot 0 0\n",
		"egs 4 1 true\nsnapshot 0 -5\n",
		"egs 4 1 true\nsnapshot 0 99999999999999999\n",
		"egs 4 1 true\nsnapshot 1 0\n",
	} {
		f.Add([]byte(s))
	}
	savedV, savedT := graph.MaxTextVertices, graph.MaxTextSnapshots
	graph.MaxTextVertices = 1 << 12
	graph.MaxTextSnapshots = 1 << 10
	f.Cleanup(func() {
		graph.MaxTextVertices, graph.MaxTextSnapshots = savedV, savedT
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		egs, err := graph.ReadEGS(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := graph.WriteEGS(&out, egs); err != nil {
			t.Fatalf("WriteEGS on accepted input: %v", err)
		}
		if _, err := graph.ReadEGS(&out); err != nil {
			t.Fatalf("re-parse of round-tripped input: %v", err)
		}
	})
}

// FuzzDeltaSequence holds the event-backed matrix sequence against a
// reference that shares none of its machinery: an edge set kept in a
// map, each step's snapshot built by New from it and derived whole. The
// input picks a small graph (n ≤ 12, either kind, one of the derivers
// that suit it), its first edges and up to eight event batches — no-op
// inserts and deletes of absent edges, self-loops and both orientations
// of an undirected pair included — and the matrices are read twice over
// in shuffled orders, each read followed by a step from a shuffled order
// of its own: every matrix must equal the reference bit for bit, and
// every Step(i) must fill what Diff of the reference's A_{i−1} and A_i
// fills, entry for entry with Added and Removed.
func FuzzDeltaSequence(f *testing.F) {
	// n, kind, #first edges, the first edges, then (u, v, op) triples;
	// an op byte ≡ 3 (mod 4) closes the batch.
	f.Add([]byte{5, 0, 2, 0, 1, 2, 3, 1, 2, 0, 0, 1, 1, 3, 3, 3, 4, 4, 0, 0, 0, 3})
	f.Add([]byte{6, 1, 3, 0, 1, 1, 2, 2, 3, 1, 0, 1, 5, 4, 0, 3, 3, 3, 2, 1, 2, 0, 1, 0, 4, 5, 2, 7, 1, 2})
	f.Add([]byte{4, 3, 1, 3, 0, 0, 3, 0, 3, 1, 1, 1, 2, 2, 3, 3, 3, 2, 1, 1})
	f.Add([]byte{12, 5, 0, 11, 0, 0, 0, 11, 0, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, kind := 2+next()%11, next()
		directed := kind&1 == 1
		ders := []graph.Deriver{graph.RWRMatrix(0.85)}
		if !directed {
			ders = append(ders, graph.SymmetricWalkMatrix(0.85), graph.LaplacianMatrix(0.5))
		}
		d := ders[(kind>>1)%len(ders)]
		seed := uint64(len(data))
		for _, b := range data {
			seed = seed*31 + uint64(b)
		}

		model := map[graph.Edge]bool{}
		set := func(u, v int, present bool) {
			if u == v {
				return
			}
			if !directed && v < u {
				u, v = v, u
			}
			if present {
				model[graph.Edge{From: u, To: v}] = true
			} else {
				delete(model, graph.Edge{From: u, To: v})
			}
		}
		snapshot := func() *graph.Graph {
			es := make([]graph.Edge, 0, len(model))
			for e := range model {
				es = append(es, e)
			}
			return graph.New(n, directed, es)
		}
		var firstEdges []graph.Edge
		for k := next() % 16; k > 0; k-- {
			u, v := next()%n, next()%n
			firstEdges = append(firstEdges, graph.Edge{From: u, To: v})
			set(u, v, true)
		}
		want := []*sparse.CSR{graph.Derive(d, snapshot())}
		var batches [][]graph.EdgeEvent
		var batch []graph.EdgeEvent
		for len(data) > 0 && len(batches) < 8 {
			u, v, op := next()%n, next()%n, next()%4
			if op == 3 {
				batches = append(batches, batch)
				want = append(want, graph.Derive(d, snapshot()))
				batch = nil
				continue
			}
			ev := graph.EdgeEvent{From: u, To: v, Op: graph.EdgeOp(op)}
			batch = append(batch, ev)
			set(u, v, ev.Op != graph.EdgeDelete)
		}

		seq, err := graph.NewDeltaSequence(graph.New(n, directed, firstEdges), batches, d)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Len() != len(want) {
			t.Fatalf("%d matrices, want %d", seq.Len(), len(want))
		}
		rng := xrand.New(seed)
		steps := append(rng.Perm(seq.Len()), rng.Perm(seq.Len())...)
		var step, ref sparse.StepDelta
		for k, i := range append(rng.Perm(seq.Len()), rng.Perm(seq.Len())...) {
			if j := steps[k]; j > 0 {
				seq.Step(j, &step)
				ref.Diff(want[j-1], want[j])
				if err := sameStep(&step, &ref); err != nil {
					t.Fatalf("step %d: %v", j, err)
				}
			}
			got := seq.Matrix(i)
			gp, gc, gv := got.Arrays()
			wp, wc, wv := want[i].Arrays()
			if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
				t.Fatalf("matrix %d: pattern differs from the reference's", i)
			}
			for k := range gv {
				if math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("matrix %d entry %d: %v, reference %v", i, k, gv[k], wv[k])
				}
			}
		}
	})
}
