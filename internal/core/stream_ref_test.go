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
// pattern). It is what Stream.step/rebuild/update did before a batch
// cost what it changed.
type refStream struct {
	alg     Algorithm
	derive  graph.Deriver
	builder *graph.Builder
	tracker *cluster.Tracker

	ord         sparse.Ordering
	colInv      sparse.Perm
	static      *lu.StaticFactors
	dyn         *lu.DynamicFactors
	solver      *lu.Solver
	prev        *sparse.CSR
	structUnion *sparse.Pattern
	luWS        lu.Workspace
	benWS       bennett.Workspace

	terms      []bennett.Rank1Term
	structural bool
	stats      StreamStats
}

func newRefStream(t *testing.T, alg Algorithm, alpha float64, initial *graph.Graph, d graph.Deriver) *refStream {
	t.Helper()
	r := &refStream{alg: alg, derive: d, builder: graph.NewBuilderFrom(initial)}
	a := graph.Derive(d, initial)
	if alg == CINC || alg == CLUDE {
		r.tracker = cluster.NewTracker(alpha)
		r.tracker.Admit(a.Pattern())
	}
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
	switch r.alg {
	case BF:
		r.stats.Clusters++
		err = r.rebuild(cur, pat)
	case INC:
		err = r.update(cur)
	case CINC:
		if r.tracker.Admit(pat) {
			err = r.update(cur)
		} else {
			r.stats.Clusters++
			err = r.rebuild(cur, pat)
		}
	case CLUDE:
		switch {
		case !r.tracker.Admit(pat):
			r.stats.Clusters++
			err = r.rebuild(cur, r.tracker.Union())
		case !pat.Subset(r.structUnion):
			r.stats.StructRebuilds++
			err = r.rebuild(cur, r.tracker.Union())
		default:
			err = r.update(cur)
		}
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
	sym := lu.Symbolic(first.Pattern())
	if r.alg == CLUDE {
		sym = lu.Symbolic(pat.Permute(r.ord))
		r.structUnion = pat
	}
	r.static = lu.NewStaticFactors(sym)
	if err := r.static.FactorizeWith(first, &r.luWS); err != nil {
		return err
	}
	var fac lu.Factors = r.static
	r.dyn = nil
	if r.alg == INC || r.alg == CINC {
		r.dyn = lu.NewDynamicFactors(r.static)
		fac = r.dyn
	}
	r.solver = &lu.Solver{F: fac, O: r.ord}
	r.prev = first
	return nil
}

func (r *refStream) update(cur *sparse.CSR) error {
	curP := cur.PermuteInv(r.ord, r.colInv)
	terms := bennett.SplitTerms(sparse.Delta(r.prev, curP))
	var fac lu.Factors = r.static
	if r.dyn != nil {
		fac = r.dyn
	}
	if err := r.benWS.ApplyTerms(fac, terms, &r.stats.Bennett); err != nil {
		return fmt.Errorf("reference stream does not refactorize: %w", err)
	}
	r.structural, r.terms = false, terms
	r.prev = curP
	return nil
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
// property: over seeded event streams, for every deriver and strategy,
// each version's history record (structural flag and every term: Key,
// ByCol, every bit of W), admission outcome and counters, factor hash,
// graph and exported Prev are those of the whole-matrix reference, and
// a stream restored from a mid-run export arrives at the same bits.
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
		for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
			for _, alpha := range []float64{0.8, 0.97} {
				if alpha != 0.8 && (alg == BF || alg == INC) {
					continue // no tracker: alpha changes nothing
				}
				name := fmt.Sprintf("%s/%s/alpha=%v", dv.name, alg, alpha)
				rng := xrand.New(uint64(40 + len(name)))
				initial, batches := mixedEventStream(rng, 40, dv.directed, 44)

				var rec bennett.VersionRecord
				cfg := StreamConfig{
					Algorithm: alg, Alpha: alpha, Initial: initial, Derive: dv.d,
					OnPublish: func(_ *lu.Solver, r bennett.VersionRecord) { rec = r },
				}
				s, err := NewStream(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := newRefStream(t, alg, alpha, initial, dv.d)
				var mid *StreamState
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
					got := s.Stats()
					got.DynamicInserts, got.DynamicScanSteps = 0, 0 // hashed with the container below
					if got != ref.stats {
						t.Fatalf("%s: stats %+v, reference %+v", at, got, ref.stats)
					}
					s.View(func(_ uint64, sv *lu.Solver) {
						if solverHash(sv) != solverHash(ref.solver) {
							t.Fatalf("%s: factor hash differs from the reference", at)
						}
					})
					if ref.tracker != nil {
						a, b := s.tracker.State(), ref.tracker.State()
						if a.Start != b.Start || a.End != b.End || a.Clusters != b.Clusters || !a.Inter.Equal(b.Inter) || !a.Union.Equal(b.Union) {
							t.Fatalf("%s: tracker state differs from full-pattern admission", at)
						}
					}
					st, err := s.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if !sameMatrix(st.Prev, ref.prev) || !sameGraph(st.Graph, ref.builder.Graph()) {
						t.Fatalf("%s: exported Prev/Graph differ from the reference", at)
					}
					if alg == CLUDE && !st.StructUnion.Equal(ref.structUnion) {
						t.Fatalf("%s: structure union differs", at)
					}
					if v == len(batches)/2 {
						mid = st
						rcfg := cfg
						rcfg.OnPublish = nil
						if restored, err = RestoreStream(rcfg, mid); err != nil {
							t.Fatalf("%s: restore: %v", at, err)
						}
					}
				}
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
				if alg == CLUDE && ref.stats.StructRebuilds == 0 {
					t.Fatalf("%s: stream never grew past its USSP", name)
				}
				if alg == CINC && alpha == 0.97 && ref.stats.Clusters < 2 {
					t.Fatalf("%s: stream never restarted a cluster", name)
				}
			}
		}
	}
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

// TestFailedBatchIsAtomic: a batch whose strategy step fails leaves the
// stream where a stream that never saw it stands — graph, exported Prev,
// tracker, counters — and the next batch lands on the same factors. Only
// the sequence number remembers it, so WAL replay meets the same
// failure. Where the failing step was a Bennett update the container is
// refilled from the pre-batch matrix, so there the next factors agree to
// rounding and the next record is structural instead of a delta.
func TestFailedBatchIsAtomic(t *testing.T) {
	rng := xrand.New(61)
	initial, batches := randomEventStream(rng, 60, 3, 8)
	// The sentinel is either an edge the graph has never held (CLUDE:
	// past the USSP, so the failing step is a rebuild) or one the first
	// batch deletes and the bad batch brings back (inside the USSP: the
	// failing step is an update).
	fresh := graph.Edge{From: 7, To: 11}
	for initial.HasEdge(fresh.From, fresh.To) {
		fresh.To++
	}
	returning, gate := initial.Edges()[0], initial.Edges()[1]
	for _, tc := range []struct {
		name     string
		alg      Algorithm
		sentinel graph.Edge
		exact    bool // the failing step never touched the live container
	}{
		{"BF/fresh", BF, fresh, true},
		{"CLUDE/fresh", CLUDE, fresh, true},
		{"CLUDE/returning", CLUDE, returning, false},
		{"CINC/fresh", CINC, fresh, false},
		{"INC/fresh", INC, fresh, false},
	} {
		d := sentinelDeriver{graph.RWRMatrix(0.85), tc.sentinel, gate}
		first := append([]graph.EdgeEvent{{From: returning.From, To: returning.To, Op: graph.EdgeDelete}}, batches[0]...)
		bad := append(slices.Clone(batches[1]),
			graph.EdgeEvent{From: tc.sentinel.From, To: tc.sentinel.To, Op: graph.EdgeInsert},
			graph.EdgeEvent{From: gate.From, To: gate.To, Op: graph.EdgeDelete})
		open := func(rec *bennett.VersionRecord) *Stream {
			s, err := NewStream(StreamConfig{
				Algorithm: tc.alg, Alpha: 0.5, Initial: initial, Derive: d,
				OnPublish: func(_ *lu.Solver, r bennett.VersionRecord) { *rec = r },
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
		if a.Seq() != b.Seq()+1 || a.Version() != b.Version() {
			t.Fatalf("%s: seq %d version %d after the failure, clean stream at seq %d version %d", tc.name, a.Seq(), a.Version(), b.Seq(), b.Version())
		}
		compare := func(when string) {
			t.Helper()
			_, ga := a.GraphSnapshot()
			_, gb := b.GraphSnapshot()
			if !sameGraph(ga, gb) {
				t.Fatalf("%s %s: graphs differ", tc.name, when)
			}
			sa, err := a.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			sb, _ := b.ExportState()
			if !sameMatrix(sa.Prev, sb.Prev) {
				t.Fatalf("%s %s: exported Prev differs", tc.name, when)
			}
			if sa.Tracker != nil && (sa.Tracker.Start != sb.Tracker.Start || sa.Tracker.End != sb.Tracker.End || sa.Tracker.Clusters != sb.Tracker.Clusters ||
				!sa.Tracker.Inter.Equal(sb.Tracker.Inter) || !sa.Tracker.Union.Equal(sb.Tracker.Union)) {
				t.Fatalf("%s %s: tracker states differ", tc.name, when)
			}
			sta, stb := a.Stats(), b.Stats()
			if !tc.exact {
				// The refilled dynamic container restarts its splice counters.
				sta.DynamicInserts, sta.DynamicScanSteps, stb.DynamicInserts, stb.DynamicScanSteps = 0, 0, 0, 0
			}
			if when == "after the failure" && sta != stb {
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
