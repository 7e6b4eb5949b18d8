package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// refStream is the whole-matrix stream step, kept as the reference the
// incremental Stream is held against: every batch materializes the
// graph, derives the whole matrix, permutes it, diffs it against the
// previous one (sparse.Delta), admits its full pattern, and builds
// structures with a second elimination (lu.Symbolic of the permuted
// union). It is what Stream.step/rebuild/update did before a batch cost
// what it changed. A batch that grows the union decides the β rule on
// lu.Symbolic of the whole grown union in the kept ordering, not on an
// incremental closure, and moves the factors by position lookups.
type refStream struct {
	derive  graph.Deriver
	builder *graph.Builder
	tracker *cluster.Tracker

	ord         sparse.Ordering
	colInv      sparse.Perm
	static      *lu.StaticFactors
	solver      *lu.Solver
	prev        *sparse.CSR
	structUnion *sparse.Pattern
	luWS        lu.Workspace
	benWS       bennett.Workspace

	terms      []bennett.Rank1Term
	structural bool
	stats      StreamStats
}

func newRefStream(t testing.TB, alpha float64, initial *graph.Graph, d graph.Deriver) *refStream {
	t.Helper()
	r := &refStream{derive: d, builder: graph.NewBuilderFrom(initial), tracker: cluster.NewTracker(alpha)}
	a := graph.Derive(d, initial)
	r.tracker.Admit(a.Pattern())
	r.stats.Clusters = 1
	if err := r.rebuild(a, a.Pattern()); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *refStream) apply(events []graph.EdgeEvent) error {
	applied, err := r.builder.ApplyBatch(events)
	if err != nil {
		return err
	}
	r.stats.Batches++
	r.stats.Events += len(events)
	r.stats.EventsApplied += applied
	cur := graph.Derive(r.derive, r.builder.Graph())
	pat := cur.Pattern()
	switch {
	case !r.tracker.Admit(pat):
		r.stats.Clusters++
		err = r.rebuild(cur, r.tracker.Union())
	case !pat.Subset(r.structUnion):
		union := r.tracker.Union()
		sym := lu.Symbolic(union.Permute(r.ord))
		if float64(sym.Size())/float64(r.stats.RefFill) > 1+KeptOrderBeta {
			r.stats.StructRebuilds++
			err = r.rebuild(cur, union)
			break
		}
		r.stats.KeptGrowths++
		r.structUnion = union
		err = r.keep(cur, sym)
	default:
		err = r.update(cur)
	}
	if err == nil {
		r.stats.Version++
	}
	return err
}

func (r *refStream) rebuild(cur *sparse.CSR, pat *sparse.Pattern) error {
	r.structural, r.terms = true, nil
	r.ord = order.Markowitz(pat).Ordering
	r.colInv = r.ord.Col.Inverse()
	first := cur.PermuteInv(r.ord, r.colInv)
	r.structUnion = pat
	r.static = lu.NewStaticFactors(lu.Symbolic(pat.Permute(r.ord)))
	if err := r.static.FactorizeWith(first, &r.luWS); err != nil {
		return err
	}
	r.solver = &lu.Solver{F: r.static, O: r.ord}
	r.prev = first
	r.stats.Fill = r.static.Size()
	r.stats.RefFill = r.stats.Fill
	return nil
}

// keep moves the factors into a container of sym, value by value, when
// sym is larger than the current structure, and updates them to cur.
func (r *refStream) keep(cur *sparse.CSR, sym *lu.SymbolicLU) error {
	grew := sym.Size() != r.static.Size()
	if grew {
		old := r.static
		r.static = lu.NewStaticFactors(sym)
		n := old.Dim()
		copy(r.static.D, old.D)
		for j := 0; j < n; j++ {
			for p := r.static.LColPtr[j]; p < r.static.LColPtr[j+1]; p++ {
				r.static.LVal[p] = old.LAt(r.static.LRowIdx[p], j)
			}
		}
		for i := 0; i < n; i++ {
			for p := r.static.URowPtr[i]; p < r.static.URowPtr[i+1]; p++ {
				r.static.UVal[p] = old.UAt(i, r.static.UColIdx[p])
			}
		}
		r.static.RefreshMirror()
		r.solver = &lu.Solver{F: r.static, O: r.ord}
		r.stats.Fill = sym.Size()
	}
	if err := r.update(cur); err != nil {
		return err
	}
	if grew {
		r.structural, r.terms = true, nil
	}
	return nil
}

func (r *refStream) update(cur *sparse.CSR) error {
	curP := cur.PermuteInv(r.ord, r.colInv)
	terms := bennett.SplitTerms(sparse.Delta(r.prev, curP))
	if err := r.benWS.ApplyTerms(r.static, terms, &r.stats.Bennett); err != nil {
		return fmt.Errorf("reference stream does not refactorize: %w", err)
	}
	r.structural, r.terms = false, terms
	r.prev = curP
	return nil
}

// exportState is ExportState for a test that cannot go on without it.
func exportState(t *testing.T, s *Stream) *StreamState {
	t.Helper()
	st, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func solverHash(s *lu.Solver) uint64 {
	h := fnv.New64a()
	hashSolver(h, s)
	return h.Sum64()
}

func sameTerms(a, b []bennett.Rank1Term) bool {
	return slices.EqualFunc(a, b, func(x, y bennett.Rank1Term) bool {
		return x.Key == y.Key && x.ByCol == y.ByCol && slices.EqualFunc(x.W, y.W, func(p, q sparse.Entry) bool {
			return p.Row == q.Row && p.Col == q.Col && math.Float64bits(p.Val) == math.Float64bits(q.Val)
		})
	})
}

func sameMatrix(a, b *sparse.CSR) bool {
	if a.N() != b.N() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if !slices.Equal(ac, bc) || !slices.EqualFunc(av, bv, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}

func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.Directed() != b.Directed() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.OutNeighbors(u), b.OutNeighbors(u)) || a.InDegree(u) != b.InDegree(u) {
			return false
		}
	}
	return true
}

// mixedEventStream draws the batch shapes an ingest feed is made of: a
// pool of edges flapping off and on, growth by fresh edges, one vertex
// losing its out-edges down to degree 0 and getting them back, empty
// batches, a batch that inserts and deletes the same edge, a batch that
// touches one source sixteen times, and plain random noise.
func mixedEventStream(rng *xrand.Rand, n int, directed bool, T int) (*graph.Graph, [][]graph.EdgeEvent) {
	es := make([]graph.Edge, 0, 3*n)
	for k := 0; k < 3*n; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	initial := graph.New(n, directed, es)
	pool := initial.Edges()[:8]
	flap := func(op graph.EdgeOp) []graph.EdgeEvent {
		var evs []graph.EdgeEvent
		for _, e := range pool {
			evs = append(evs, graph.EdgeEvent{From: e.From, To: e.To, Op: op})
		}
		return evs
	}
	victim := pool[0].From
	var lost []graph.EdgeEvent
	var batches [][]graph.EdgeEvent
	for t := 0; t < T; t++ {
		var evs []graph.EdgeEvent
		switch t % 11 {
		case 0:
			evs = flap(graph.EdgeDelete)
		case 1:
			evs = flap(graph.EdgeInsert)
		case 2, 6:
			for k := 0; k < 4; k++ {
				evs = append(evs, graph.EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: graph.EdgeInsert})
			}
		case 3: // down to out-degree 0, against the graph as the stream will see it
			b := graph.NewBuilderFrom(initial)
			for _, earlier := range batches {
				b.ApplyBatch(earlier)
			}
			lost = lost[:0]
			for _, v := range b.OutNeighbors(victim) {
				lost = append(lost, graph.EdgeEvent{From: victim, To: v, Op: graph.EdgeDelete})
			}
			evs = slices.Clone(lost)
		case 4:
			for _, ev := range lost {
				evs = append(evs, graph.EdgeEvent{From: ev.From, To: ev.To, Op: graph.EdgeUpdate})
			}
		case 5: // empty
		case 7:
			u, v := rng.Intn(n), rng.Intn(n)
			evs = []graph.EdgeEvent{{From: u, To: v, Op: graph.EdgeInsert}, {From: u, To: v, Op: graph.EdgeDelete}, {From: v, To: u, Op: graph.EdgeUpdate}, {From: v, To: u, Op: graph.EdgeDelete}}
		case 8:
			u := rng.Intn(n)
			for k := 0; k < 16; k++ {
				evs = append(evs, graph.EdgeEvent{From: u, To: rng.Intn(n), Op: graph.EdgeOp(rng.Intn(3))})
			}
		default:
			for k := 0; k < 6; k++ {
				evs = append(evs, graph.EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: graph.EdgeOp(rng.Intn(3))})
			}
		}
		batches = append(batches, evs)
	}
	return initial, batches
}

// TestStreamMatchesWholeMatrixReference is the incremental stream's
// property over seeded event streams of every batch shape
// (mixedEventStream), for every deriver and two α: see
// expectStreamMatchesReference.
func TestStreamMatchesWholeMatrixReference(t *testing.T) {
	derivers := []struct {
		name     string
		d        graph.Deriver
		directed bool
	}{
		{"RWR", graph.RWRMatrix(0.85), true},
		{"SymmetricWalk", graph.SymmetricWalkMatrix(0.85), false},
		{"Laplacian", graph.LaplacianMatrix(0.5), false},
	}
	for _, dv := range derivers {
		for _, alpha := range []float64{0.8, 0.97} {
			name := fmt.Sprintf("%s/CLUDE/alpha=%v", dv.name, alpha)
			rng := xrand.New(uint64(40 + len(name)))
			initial, batches := mixedEventStream(rng, 40, dv.directed, 44)
			st := expectStreamMatchesReference(t, name, initial, batches, dv.d, alpha)
			if st.StructRebuilds == 0 || st.KeptGrowths == 0 {
				t.Fatalf("%s: %d rebuilds and %d kept growths: the stream must grow past its USSP both ways", name, st.StructRebuilds, st.KeptGrowths)
			}
			if alpha == 0.97 && st.Clusters < 2 {
				t.Fatalf("%s: stream never restarted a cluster", name)
			}
		}
	}
}

// FuzzStreamMatchesReference is TestStreamMatchesWholeMatrixReference
// over generated streams (n ≤ 40, ≤ 8 batches of ≤ 16 events, any α),
// directed under RWR and undirected under SymmetricWalk.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Add(uint64(23), uint8(30), uint8(7), uint8(10), uint8(90), false)
	f.Add(uint64(1), uint8(3), uint8(0), uint8(0), uint8(0), false)
	f.Add(uint64(77), uint8(38), uint8(7), uint8(15), uint8(100), true)
	f.Add(uint64(5), uint8(25), uint8(6), uint8(12), uint8(80), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, batches, perBatch, alpha uint8, undirected bool) {
		initial, evs := randomEventStream(xrand.New(seed), 2+int(n)%39, 1+int(batches)%8, 1+int(perBatch)%16)
		var d graph.Deriver = graph.RWRMatrix(0.85)
		if undirected {
			initial = graph.New(initial.N(), false, initial.Edges())
			d = graph.SymmetricWalkMatrix(0.85)
		}
		expectStreamMatchesReference(t, fmt.Sprint("seed ", seed), initial, evs, d, float64(alpha%101)/100)
	})
}

// expectStreamMatchesReference feeds the batches to a Stream and to the
// whole-matrix reference and holds, for every version, the history
// record (structural flag and every term: Key, ByCol, every bit of W),
// the admission outcome and counters, the factor hash, the tracker, the
// exported graph, the matrix it and the exported ordering give, and the
// exported tracker's union to the reference's structure union. A
// stream restored from an export halfway through must arrive at the
// same factors and counters. It returns the final counters.
func expectStreamMatchesReference(t *testing.T, name string, initial *graph.Graph, batches [][]graph.EdgeEvent, d graph.Deriver, alpha float64) StreamStats {
	t.Helper()
	var rec bennett.VersionRecord
	cfg := StreamConfig{
		Alpha: alpha, Initial: initial, Derive: d,
		OnPublish: func(_ *lu.Solver, r bennett.VersionRecord) { rec = r },
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer s.Close()
	ref := newRefStream(t, alpha, initial, d)
	var restored *Stream
	for v, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("%s batch %d: %v", name, v, err)
		}
		if err := ref.apply(evs); err != nil {
			t.Fatalf("%s batch %d (reference): %v", name, v, err)
		}
		if restored != nil {
			if _, err := restored.Apply(evs); err != nil {
				t.Fatalf("%s batch %d (restored): %v", name, v, err)
			}
		}
		at := fmt.Sprintf("%s version %d", name, v+1)
		if rec.Version != uint64(v+1) || rec.Structural != ref.structural || !sameTerms(rec.Terms, ref.terms) {
			t.Fatalf("%s: record structural=%v with %d terms, reference structural=%v with %d terms",
				at, rec.Structural, len(rec.Terms), ref.structural, len(ref.terms))
		}
		if got := s.Stats(); got != ref.stats {
			t.Fatalf("%s: stats %+v, reference %+v", at, got, ref.stats)
		}
		s.View(func(_ uint64, sv *lu.Solver) {
			if solverHash(sv) != solverHash(ref.solver) {
				t.Fatalf("%s: factor hash differs from the reference", at)
			}
		})
		a, b := s.tracker.State(), ref.tracker.State()
		if a.Start != b.Start || a.End != b.End || a.Clusters != b.Clusters || !a.Inter.Equal(b.Inter) || !a.Union.Equal(b.Union) {
			t.Fatalf("%s: tracker state differs from full-pattern admission", at)
		}
		st := exportState(t, s)
		if !sameGraph(st.Graph, ref.builder.Graph()) {
			t.Fatalf("%s: exported graph differs from the reference", at)
		}
		if !sameMatrix(graph.Derive(d, st.Graph).PermuteInv(st.Ord, st.Ord.Col.Inverse()), ref.prev) {
			t.Fatalf("%s: exported graph and ordering do not give the reference's permuted matrix", at)
		}
		// One copy of each fact: the tracker's union is the union the
		// container was built from, and its count is the cluster count.
		if !s.tracker.Union().Equal(ref.structUnion) || !st.Tracker.Union.Equal(ref.structUnion) {
			t.Fatalf("%s: tracker union differs from the reference's structure union", at)
		}
		if s.tracker.Clusters() != s.Stats().Clusters {
			t.Fatalf("%s: tracker counts %d clusters, stats %d", at, s.tracker.Clusters(), s.Stats().Clusters)
		}
		if v == len(batches)/2 {
			rcfg := cfg
			rcfg.OnPublish = nil
			if restored, err = RestoreStream(rcfg, st); err != nil {
				t.Fatalf("%s: restore: %v", at, err)
			}
			defer restored.Close()
		}
	}
	if restored != nil {
		s.View(func(_ uint64, a *lu.Solver) {
			restored.View(func(_ uint64, b *lu.Solver) {
				if solverHash(a) != solverHash(b) {
					t.Fatalf("%s: restored stream ends on different factors", name)
				}
			})
		})
		if rs, ss := restored.Stats(), s.Stats(); rs != ss {
			t.Fatalf("%s: restored stats %+v, uninterrupted %+v", name, rs, ss)
		}
	}
	return ref.stats
}

// sentinelDeriver is RWR unless the sentinel edge is present while the
// gate edge is absent: then the sentinel's source column is stored as
// all zeros, diagonal included, and the matrix is exactly singular. (The
// gate lets an edge of the initial graph be the sentinel.)
type sentinelDeriver struct {
	graph.Deriver
	sentinel, gate graph.Edge
}

func (d sentinelDeriver) Column(g graph.Adjacency, i int, rows []int, vals []float64) ([]int, []float64) {
	rows, vals = d.Deriver.Column(g, i, rows, vals)
	_, armed := slices.BinarySearch(g.OutNeighbors(d.sentinel.From), d.sentinel.To)
	_, safe := slices.BinarySearch(g.OutNeighbors(d.gate.From), d.gate.To)
	if i == d.sentinel.From && armed && !safe {
		clear(vals)
	}
	return rows, vals
}

func (d sentinelDeriver) Dirty(g graph.Adjacency, u, v int, mark func(int)) {
	d.Deriver.Dirty(g, u, v, mark)
	if u == d.gate.From && v == d.gate.To {
		mark(d.sentinel.From)
	}
}

// keptEdge returns an edge the graph lacks after the prior batches
// whose insertion, into an RWR stream over initial at alpha that has
// applied them, is a kept-order growth whose closure grows the
// structure (grows) or falls on fill (!grows). Each candidate is tried
// on a stream of its own.
func keptEdge(t *testing.T, initial *graph.Graph, alpha float64, prior [][]graph.EdgeEvent, grows bool) graph.Edge {
	t.Helper()
	open := func() *Stream {
		s, err := NewStream(StreamConfig{Alpha: alpha, Initial: initial, Derive: graph.RWRMatrix(0.85)})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range prior {
			if _, err := s.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	g := open().builder.Graph()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v || g.HasEdge(u, v) {
				continue
			}
			s := open()
			before := s.Stats()
			_, err := s.Apply([]graph.EdgeEvent{{From: u, To: v, Op: graph.EdgeInsert}})
			after := s.Stats()
			s.Close()
			if err == nil && after.KeptGrowths == before.KeptGrowths+1 && (after.Fill > before.Fill) == grows {
				return graph.Edge{From: u, To: v}
			}
		}
	}
	t.Fatalf("no edge is a kept-order growth with grows=%v", grows)
	return graph.Edge{}
}

// TestFailedBatchIsAtomic: a batch whose CLUDE step fails leaves the
// stream where a stream that never saw it stands — graph, exported
// ordering, tracker, counters — and the next batch lands on the same
// factors. Only the sequence number remembers it, so WAL replay meets
// the same failure. The failing step is a kept-order growth into a
// grown container (the update and the refactorization both fail there,
// and it is dropped), a rebuild, a kept-order growth that fell on fill,
// or a Bennett update inside the USSP; the first two never touch the live
// container. Where the failing step was an update on the live container
// it is refilled from the pre-batch matrix, so there the next factors
// agree to rounding and the next record is structural instead of a
// delta.
func TestFailedBatchIsAtomic(t *testing.T) {
	rng := xrand.New(61)
	initial, batches := randomEventStream(rng, 60, 3, 8)
	// The sentinel is either an edge the graph has never held (past the
	// USSP, so the failing step grows the union) or one the first batch
	// deletes and the bad batch brings back (inside the USSP: the
	// failing step is an update).
	fresh := graph.Edge{From: 7, To: 11}
	for initial.HasEdge(fresh.From, fresh.To) {
		fresh.To++
	}
	returning, gate := initial.Edges()[0], initial.Edges()[1]
	// Every absent edge out of the first six vertices: more growth than
	// one ordering keeps within the bound.
	var burst []graph.EdgeEvent
	for u := 0; u < 6; u++ {
		for v := 0; v < initial.N(); v++ {
			if e := (graph.Edge{From: u, To: v}); u != v && !initial.HasEdge(u, v) && e != fresh && e != gate {
				burst = append(burst, graph.EdgeEvent{From: u, To: v, Op: graph.EdgeInsert})
			}
		}
	}
	first := append([]graph.EdgeEvent{{From: returning.From, To: returning.To, Op: graph.EdgeDelete}}, batches[0]...)
	// The gate's deletion adds no position, so the sentinel alone decides
	// the failing batch's path.
	withoutGate := [][]graph.EdgeEvent{first, {{From: gate.From, To: gate.To, Op: graph.EdgeDelete}}}
	for _, tc := range []struct {
		name     string
		sentinel graph.Edge
		extra    []graph.EdgeEvent
		path     []string // the failing batch's apply parts
		exact    bool     // the failing step never touched the live container
	}{
		{"kept growth", keptEdge(t, initial, 0.5, withoutGate, true), nil, []string{PartDelta, PartOrder, PartFactorize, PartUpdate}, true},
		{"rebuild", fresh, burst, []string{PartDelta, PartOrder}, true},
		{"kept on fill", keptEdge(t, initial, 0.5, withoutGate, false), nil, []string{PartDelta, PartOrder, PartUpdate, PartFactorize}, false},
		{"update", returning, nil, []string{PartDelta, PartUpdate, PartFactorize}, false},
	} {
		d := sentinelDeriver{graph.RWRMatrix(0.85), tc.sentinel, gate}
		bad := append(slices.Clone(tc.extra),
			graph.EdgeEvent{From: tc.sentinel.From, To: tc.sentinel.To, Op: graph.EdgeInsert},
			graph.EdgeEvent{From: gate.From, To: gate.To, Op: graph.EdgeDelete})
		var parts []string
		open := func(rec *bennett.VersionRecord) *Stream {
			s, err := NewStream(StreamConfig{
				Alpha: 0.5, Initial: initial, Derive: d,
				OnPublish: func(_ *lu.Solver, r bennett.VersionRecord) { *rec = r },
				OnBatch: func(bt BatchTrace) {
					parts = parts[:0]
					for _, p := range samples(bt.Parts[:]) {
						parts = append(parts, p.Name)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if _, err := s.Apply(first); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return s
		}
		var recA, recB bennett.VersionRecord
		a, b := open(&recA), open(&recB)

		if v, err := a.Apply(bad); err == nil {
			t.Fatalf("%s: singular batch published version %d", tc.name, v)
		}
		if !slices.Equal(parts, tc.path) {
			t.Fatalf("%s: the failing batch ran %v, want %v", tc.name, parts, tc.path)
		}
		if a.Seq() != b.Seq()+1 || a.Version() != b.Version() {
			t.Fatalf("%s: seq %d version %d after the failure, clean stream at seq %d version %d", tc.name, a.Seq(), a.Version(), b.Seq(), b.Version())
		}
		compare := func(when string) {
			t.Helper()
			sa, sb := exportState(t, a), exportState(t, b)
			if !sameGraph(sa.Graph, sb.Graph) {
				t.Fatalf("%s %s: graphs differ", tc.name, when)
			}
			if !slices.Equal(sa.Ord.Row, sb.Ord.Row) || !slices.Equal(sa.Ord.Col, sb.Ord.Col) {
				t.Fatalf("%s %s: exported orderings differ", tc.name, when)
			}
			if sa.Tracker.Start != sb.Tracker.Start || sa.Tracker.End != sb.Tracker.End || sa.Tracker.Clusters != sb.Tracker.Clusters ||
				!sa.Tracker.Inter.Equal(sb.Tracker.Inter) || !sa.Tracker.Union.Equal(sb.Tracker.Union) {
				t.Fatalf("%s %s: tracker states differ", tc.name, when)
			}
			if sta, stb := a.Stats(), b.Stats(); when == "after the failure" && sta != stb {
				t.Fatalf("%s %s: stats %+v, clean stream %+v", tc.name, when, sta, stb)
			}
		}
		compare("after the failure")

		for _, s := range []*Stream{a, b} {
			if _, err := s.Apply(batches[2]); err != nil {
				t.Fatalf("%s: batch after the failure: %v", tc.name, err)
			}
		}
		compare("after the next batch")
		a.View(func(_ uint64, sa *lu.Solver) {
			b.View(func(_ uint64, sb *lu.Solver) {
				if tc.exact {
					if solverHash(sa) != solverHash(sb) {
						t.Fatalf("%s: factors after the next batch differ from the clean stream's", tc.name)
					}
					return
				}
				rhs := make([]float64, initial.N())
				rhs[3] = 1
				if diff := sparse.NormInfDiff(sa.Solve(rhs), sb.Solve(rhs)); diff > 1e-12 {
					t.Fatalf("%s: solves after the next batch differ by %g", tc.name, diff)
				}
			})
		})
		if tc.exact {
			if recA.Structural != recB.Structural || !sameTerms(recA.Terms, recB.Terms) {
				t.Fatalf("%s: history record after the failure differs from the clean stream's", tc.name)
			}
		} else if !recA.Structural {
			t.Fatalf("%s: record after a refilled container must be structural", tc.name)
		}
	}
}
