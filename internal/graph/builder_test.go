package graph

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// edgeSet is the model the builder is held against: a plain set of
// edges in storage orientation.
type edgeSet map[Edge]bool

func (s edgeSet) apply(directed bool, ev EdgeEvent) bool {
	u, v := ev.From, ev.To
	if u == v {
		return false
	}
	if !directed && v < u {
		u, v = v, u
	}
	e := Edge{From: u, To: v}
	want := ev.Op != EdgeDelete
	if s[e] == want {
		return false
	}
	if want {
		s[e] = true
	} else {
		delete(s, e)
	}
	return true
}

func (s edgeSet) graph(n int, directed bool) *Graph {
	es := make([]Edge, 0, len(s))
	for e := range s {
		es = append(es, e)
	}
	return New(n, directed, es)
}

// randomBatch draws events over a small vertex range so duplicates,
// deletes of absent edges, self-loops, upserts and both orientations of
// one undirected edge all turn up, and some sources are hit many times.
func randomBatch(rng *xrand.Rand, n, size int) []EdgeEvent {
	evs := make([]EdgeEvent, size)
	hot := rng.Intn(n)
	for k := range evs {
		ev := EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: EdgeOp(rng.Intn(3))}
		if rng.Intn(3) == 0 {
			ev.From = hot
		}
		evs[k] = ev
	}
	return evs
}

// TestBuilderIsNewOverTheSameEdges is the builder's contract, batch by
// batch over random event streams: every documented no-op stays one,
// Graph() is indistinguishable from graph.New over the model's edge set
// (lists, nil-ness of empty lists, in-degrees, edge count), Changed and
// Before describe the batch, and Undo takes it back.
func TestBuilderIsNewOverTheSameEdges(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := xrand.New(77)
		n := 12
		model := edgeSet{}
		b := NewBuilder(n, directed)
		for step := 0; step < 300; step++ {
			evs := randomBatch(rng, n, rng.Intn(20)) // empty batches included
			prev := b.Graph()

			if step%7 == 3 {
				// A batch that is applied and taken back leaves no trace.
				if _, err := b.ApplyBatch(evs); err != nil {
					t.Fatal(err)
				}
				b.Undo()
				if got := b.Graph(); !reflect.DeepEqual(got, prev) {
					t.Fatalf("directed=%v step %d: Undo did not restore the graph", directed, step)
				}
				if len(b.Changed()) != 0 {
					t.Fatalf("directed=%v step %d: journal survives Undo", directed, step)
				}
			}

			var want []EdgeEvent
			for _, ev := range evs {
				if model.apply(directed, ev) {
					u, v := b.canon(ev.From, ev.To)
					op := EdgeInsert
					if ev.Op == EdgeDelete {
						op = EdgeDelete
					}
					want = append(want, EdgeEvent{From: u, To: v, Op: op})
				}
			}
			applied, err := b.ApplyBatch(evs)
			if err != nil {
				t.Fatal(err)
			}
			if applied != len(want) || !slices.Equal(b.Changed(), want) {
				t.Fatalf("directed=%v step %d: applied %d, changed %v; model says %v", directed, step, applied, b.Changed(), want)
			}
			if got, ref := b.Graph(), model.graph(n, directed); !reflect.DeepEqual(got, ref) {
				t.Fatalf("directed=%v step %d: builder graph differs from New over the same edges\n got %+v\nwant %+v", directed, step, got, ref)
			}
			if b.NumEdges() != len(model) {
				t.Fatalf("directed=%v step %d: %d edges, model has %d", directed, step, b.NumEdges(), len(model))
			}
			before := b.Before()
			for u := 0; u < n; u++ {
				if !slices.Equal(before.OutNeighbors(u), prev.OutNeighbors(u)) {
					t.Fatalf("directed=%v step %d: Before(%d) = %v, was %v", directed, step, u, before.OutNeighbors(u), prev.OutNeighbors(u))
				}
				for v := 0; v < n; v++ {
					if b.Has(u, v) != b.Graph().HasEdge(u, v) {
						t.Fatalf("directed=%v step %d: Has(%d,%d) disagrees with the snapshot", directed, step, u, v)
					}
				}
			}
		}
	}
}

// prevCopy rebuilds a snapshot from its own edge list — equal to the
// snapshot exactly when nothing wrote its shared lists behind its back.
func prevCopy(g *Graph) *Graph { return New(g.N(), g.Directed(), g.Edges()) }

// TestSnapshotsSurviveLaterBatches: a Graph() shares the builder's
// lists, so it must stay what it was while the builder moves on.
func TestSnapshotsSurviveLaterBatches(t *testing.T) {
	rng := xrand.New(5)
	b := NewBuilderFrom(randomGraph(rng, 20, 60, false))
	var snaps, copies []*Graph
	for step := 0; step < 40; step++ {
		g := b.Graph()
		snaps, copies = append(snaps, g), append(copies, prevCopy(g))
		if _, err := b.ApplyBatch(randomBatch(rng, 20, 8)); err != nil {
			t.Fatal(err)
		}
	}
	for k := range snaps {
		if !reflect.DeepEqual(snaps[k], copies[k]) {
			t.Fatalf("snapshot %d changed after it was taken", k)
		}
	}
}

// dirtyColumns collects what a deriver marks for a batch.
func dirtyColumns(d Deriver, b *Builder) []int {
	seen := map[int]bool{}
	for _, ev := range b.Changed() {
		d.Dirty(b, ev.From, ev.To, func(c int) { seen[c] = true })
	}
	var out []int
	for c := range seen {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// TestDirtyColumnsCoverTheChange holds every deriver's Dirty against
// the whole matrices: a column that differs between Derive(before) and
// Derive(after) is always marked, and a column evaluated on Before()
// and on the builder is that matrix's column, bit for bit.
func TestDirtyColumnsCoverTheChange(t *testing.T) {
	for name, tc := range map[string]struct {
		d        Deriver
		directed bool
	}{
		"rwr/directed":   {RWRMatrix(0.85), true},
		"rwr/undirected": {RWRMatrix(0.85), false},
		"symmetric-walk": {SymmetricWalkMatrix(0.85), false},
		"laplacian":      {LaplacianMatrix(0.5), false},
	} {
		rng := xrand.New(31)
		n := 14
		b := NewBuilderFrom(randomGraph(rng, n, 30, tc.directed))
		for step := 0; step < 120; step++ {
			old := Derive(tc.d, b)
			if _, err := b.ApplyBatch(randomBatch(rng, n, rng.Intn(12))); err != nil {
				t.Fatal(err)
			}
			if got := Derive(tc.d, b.Before()); !sameCSR(got, old) {
				t.Fatalf("%s step %d: Derive(Before()) is not the matrix before the batch", name, step)
			}
			cur := Derive(tc.d, b.Graph())
			if !sameCSR(cur, Derive(tc.d, b)) {
				t.Fatalf("%s step %d: builder and snapshot derive differently", name, step)
			}
			dirty := dirtyColumns(tc.d, b)
			oldT, curT := old.Transpose(), cur.Transpose()
			for c := 0; c < n; c++ {
				or, ov := oldT.Row(c)
				nr, nv := curT.Row(c)
				if _, marked := slices.BinarySearch(dirty, c); !marked && !(slices.Equal(or, nr) && slices.Equal(ov, nv)) {
					t.Fatalf("%s step %d: column %d changed but was not marked dirty (%v)", name, step, c, dirty)
				}
				rows, vals := tc.d.Column(b, c, nil, nil)
				if !slices.Equal(rows, nr) || !slices.Equal(vals, nv) {
					t.Fatalf("%s step %d: Column(%d) = %v %v, matrix column %v %v", name, step, c, rows, vals, nr, nv)
				}
			}
		}
	}
}

// TestNetNoOpAndRepeatedSource: a batch that inserts and deletes the
// same edge changes no column, and sixteen events on one source dirty
// one RWR column.
func TestNetNoOpAndRepeatedSource(t *testing.T) {
	d := RWRMatrix(0.85)
	b := NewBuilderFrom(randomGraph(xrand.New(9), 20, 50, true))
	if b.Has(3, 4) {
		t.Fatal("the seeded graph holds (3,4): pick another edge")
	}
	old := Derive(d, b)
	if applied, _ := b.ApplyBatch([]EdgeEvent{{From: 3, To: 4, Op: EdgeInsert}, {From: 3, To: 4, Op: EdgeDelete}}); applied != 2 {
		t.Fatalf("insert+delete applied %d events, want 2", applied)
	}
	if got := dirtyColumns(d, b); !slices.Equal(got, []int{3}) {
		t.Fatalf("insert+delete of one edge dirtied %v, want [3]", got)
	}
	if !sameCSR(Derive(d, b), old) || !sameCSR(Derive(d, b.Before()), old) {
		t.Fatal("a net no-op moved the matrix")
	}
	var evs []EdgeEvent
	for k := 0; k < 16; k++ {
		evs = append(evs, EdgeEvent{From: 7, To: (8 + k) % 20, Op: EdgeOp(k % 3)})
	}
	if _, err := b.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
	if got := dirtyColumns(d, b); !slices.Equal(got, []int{7}) {
		t.Fatalf("sixteen events on source 7 dirtied %v, want [7]", got)
	}
}

func sameCSR(a, b *sparse.CSR) bool {
	if a.N() != b.N() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if !slices.Equal(ac, bc) || !slices.Equal(av, bv) {
			return false
		}
	}
	return true
}
