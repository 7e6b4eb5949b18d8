package core

import (
	"testing"
	"time"

	"repro/internal/bennett"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// randomEventStream builds a random initial graph plus T random delta
// batches (inserts biased over deletes so the graph drifts instead of
// emptying; no-op events are deliberately included).
func randomEventStream(rng *xrand.Rand, n, T, perBatch int) (*graph.Graph, [][]graph.EdgeEvent) {
	es := make([]graph.Edge, 0, 4*n)
	for k := 0; k < 4*n; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	initial := graph.New(n, true, es)
	batches := make([][]graph.EdgeEvent, T)
	for t := range batches {
		evs := make([]graph.EdgeEvent, perBatch)
		for k := range evs {
			op := graph.EdgeInsert
			switch r := rng.Intn(10); {
			case r < 3:
				op = graph.EdgeDelete
			case r < 4:
				op = graph.EdgeUpdate
			}
			evs[k] = graph.EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: op}
		}
		batches[t] = evs
	}
	return initial, batches
}

// materialize replays the batches into the snapshot sequence the stream
// walks through (version v = snapshot v).
func materialize(t *testing.T, initial *graph.Graph, batches [][]graph.EdgeEvent) *graph.EGS {
	t.Helper()
	snaps := []*graph.Graph{initial}
	b := graph.NewBuilderFrom(initial)
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
	return egs
}

// captureStream runs a direct stream over the batches, retaining a
// clone of every published version.
func captureStream(t *testing.T, alg Algorithm, alpha float64, initial *graph.Graph, d graph.Deriver, batches [][]graph.EdgeEvent) []*lu.Solver {
	t.Helper()
	var got []*lu.Solver
	s, err := NewStream(StreamConfig{
		Algorithm: alg, Alpha: alpha, Initial: initial, Derive: d,
		OnPublish: func(sv *lu.Solver, rec bennett.VersionRecord) {
			if int(rec.Version) != len(got) {
				t.Errorf("%s: version %d published out of order (have %d)", alg, rec.Version, len(got))
			}
			got = append(got, sv.Clone())
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	defer s.Close()
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("%s: batch %d: %v", alg, i, err)
		}
	}
	return got
}

// expectSameSolve asserts two solvers produce bit-identical solutions —
// the observable face of bit-identical factors (same values, same
// operation order).
func expectSameSolve(t *testing.T, label string, a, b *lu.Solver, rng *xrand.Rand) {
	t.Helper()
	n := a.F.Dim()
	if b.F.Dim() != n {
		t.Fatalf("%s: dimension %d vs %d", label, n, b.F.Dim())
	}
	for trial := 0; trial < 3; trial++ {
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.Float64() - 0.5
		}
		xa, xb := a.Solve(v), b.Solve(v)
		for j := range xa {
			if xa[j] != xb[j] {
				t.Fatalf("%s: solve differs at %d: %v vs %v", label, j, xa[j], xb[j])
			}
		}
	}
}

// expectSameStatic compares two static containers array-for-array.
func expectSameStatic(t *testing.T, label string, a, b *lu.Solver) {
	t.Helper()
	fa, aok := a.F.(*lu.StaticFactors)
	fb, bok := b.F.(*lu.StaticFactors)
	if !aok || !bok {
		return
	}
	if len(fa.LVal) != len(fb.LVal) || len(fa.UVal) != len(fb.UVal) {
		t.Fatalf("%s: factor structure sizes differ", label)
	}
	for i := range fa.D {
		if fa.D[i] != fb.D[i] {
			t.Fatalf("%s: D[%d] %v vs %v", label, i, fa.D[i], fb.D[i])
		}
	}
	for i := range fa.LVal {
		if fa.LVal[i] != fb.LVal[i] {
			t.Fatalf("%s: LVal[%d] %v vs %v", label, i, fa.LVal[i], fb.LVal[i])
		}
	}
	for i := range fa.UVal {
		if fa.UVal[i] != fb.UVal[i] {
			t.Fatalf("%s: UVal[%d] %v vs %v", label, i, fa.UVal[i], fb.UVal[i])
		}
	}
}

// TestStreamReplayEquivalence is the headline property of the refactor:
// streaming N delta batches produces, for every version and all four
// strategies, factors bit-identical to running the offline sequence
// pipeline (Replay over the materialized snapshots) — the live feed and
// the snapshot adapter are the same computation.
func TestStreamReplayEquivalence(t *testing.T) {
	rng := xrand.New(17)
	initial, batches := randomEventStream(rng, 100, 14, 12)
	egs := materialize(t, initial, batches)
	d := graph.RWRMatrix(0.85)

	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		streamed := captureStream(t, alg, 0.9, initial, d, batches)

		offline := make([]*lu.Solver, 0, egs.Len())
		if _, err := Replay(egs, d, alg, ReplayOptions{
			Alpha: 0.9, RetainFactors: true,
			OnFactors: func(i int, s *lu.Solver) {
				if i != len(offline) {
					t.Errorf("%s: replay emitted %d out of order", alg, i)
				}
				offline = append(offline, s)
			},
		}); err != nil {
			t.Fatalf("%s replay: %v", alg, err)
		}

		if len(streamed) != egs.Len() || len(offline) != egs.Len() {
			t.Fatalf("%s: %d streamed / %d replayed versions, want %d", alg, len(streamed), len(offline), egs.Len())
		}
		cmp := xrand.New(5)
		for v := range streamed {
			label := string(alg) + " version " + itoa(v)
			expectSameStatic(t, label, streamed[v], offline[v])
			expectSameSolve(t, label, streamed[v], offline[v], cmp)
		}
	}
}

// TestStreamMatchesOfflineEngine cross-checks the streaming engine
// against the original cluster-parallel pipeline: for the strategies
// whose offline form is already online-computable (BF's per-matrix
// restart, INC's single chain, CINC's greedy α-clusters + dynamic
// container) the published factors must be bit-identical to core.Run's
// retained emissions. CLUDE is excluded by design — its offline
// ordering uses the retrospective cluster union, which no live engine
// can know — and is covered by the replay equivalence plus the residual
// check below.
func TestStreamMatchesOfflineEngine(t *testing.T) {
	rng := xrand.New(23)
	initial, batches := randomEventStream(rng, 90, 10, 10)
	egs := materialize(t, initial, batches)
	d := graph.RWRMatrix(0.85)
	ems := graph.DeriveEMS(egs, d)

	for _, alg := range []Algorithm{BF, INC, CINC} {
		streamed := captureStream(t, alg, 0.9, initial, d, batches)

		retained := make([]*lu.Solver, ems.Len())
		if _, err := Run(ems, alg, Options{
			Alpha: 0.9, RetainFactors: true,
			OnFactors: func(i int, s *lu.Solver) { retained[i] = s },
		}); err != nil {
			t.Fatalf("%s run: %v", alg, err)
		}

		cmp := xrand.New(7)
		for v := range streamed {
			expectSameSolve(t, string(alg)+" vs offline, version "+itoa(v), streamed[v], retained[v], cmp)
		}
	}
}

// TestStreamCLUDEFactorsCorrect holds every streamed CLUDE version
// against its own matrix: the published factors must solve A_v·x = b.
// (The orderings legitimately differ from offline CLUDE's; correctness
// of the factorization is what must survive USSP growth and rebuilds.)
func TestStreamCLUDEFactorsCorrect(t *testing.T) {
	rng := xrand.New(31)
	initial, batches := randomEventStream(rng, 80, 12, 14)
	egs := materialize(t, initial, batches)
	d := graph.RWRMatrix(0.85)
	ems := graph.DeriveEMS(egs, d)

	streamed := captureStream(t, CLUDE, 0.9, initial, d, batches)
	n := ems.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(n)
	}
	for v, s := range streamed {
		x := s.Solve(b)
		r := ems.Matrices[v].MulVec(x)
		if diff := sparse.NormInfDiff(r, b); diff > 1e-8 {
			t.Fatalf("CLUDE version %d: residual %g", v, diff)
		}
	}
}

// TestStreamStatsAndLifecycle exercises the counters and the closed
// state.
func TestStreamStatsAndLifecycle(t *testing.T) {
	rng := xrand.New(41)
	initial, batches := randomEventStream(rng, 60, 6, 8)
	s, err := NewStream(StreamConfig{Algorithm: CINC, Alpha: 0.9, Initial: initial, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Version != uint64(len(batches)) || st.Batches != len(batches) {
		t.Fatalf("stats %+v after %d batches", st, len(batches))
	}
	if st.Events != 6*8 || st.EventsApplied <= 0 || st.EventsApplied > st.Events {
		t.Fatalf("event accounting %+v", st)
	}
	if st.Clusters < 1 {
		t.Fatalf("no clusters recorded: %+v", st)
	}
	if !s.View(func(v uint64, sv *lu.Solver) {
		if v != st.Version || sv == nil {
			t.Errorf("View saw version %d, want %d", v, st.Version)
		}
	}) {
		t.Fatal("View found no published state")
	}
	s.Close()
	if _, err := s.Apply(nil); err != ErrStreamClosed {
		t.Fatalf("Apply after Close: %v", err)
	}
	// A closed stream still serves its last state.
	if !s.View(func(uint64, *lu.Solver) {}) {
		t.Fatal("closed stream stopped serving")
	}

	// Config validation.
	if _, err := NewStream(StreamConfig{Algorithm: "nope", Initial: initial, Derive: graph.RWRMatrix(0.85)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := NewStream(StreamConfig{Algorithm: INC}); err == nil {
		t.Fatal("missing Initial/Derive accepted")
	}
	if _, err := NewStream(StreamConfig{Algorithm: CLUDE, Alpha: 2, Initial: initial, Derive: graph.RWRMatrix(0.85)}); err == nil {
		t.Fatal("alpha out of range accepted")
	}
}

// TestBatcherGroupsAndDrains covers size-triggered commits, explicit
// flushes, and the drain-on-close contract.
func TestBatcherGroupsAndDrains(t *testing.T) {
	rng := xrand.New(53)
	initial, batches := randomEventStream(rng, 50, 4, 10)
	s, err := NewStream(StreamConfig{Algorithm: INC, Initial: initial, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	b := s.NewBatcher(10, 0) // size-only commits
	for _, evs := range batches[:2] {
		for _, ev := range evs {
			if err := b.Send(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Version(); got != 2 {
		t.Fatalf("version %d after two full batches, want 2", got)
	}
	// A partial batch lingers until flushed.
	if err := b.Send(batches[2][:3]...); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 3 || s.Version() != 2 {
		t.Fatalf("pending %d version %d, want 3 pending at version 2", b.Pending(), s.Version())
	}
	if v, err := b.Flush(); err != nil || v != 3 {
		t.Fatalf("flush -> %d, %v", v, err)
	}
	// Close drains the tail.
	if err := b.Send(batches[2][3:]...); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 4 || b.Pending() != 0 {
		t.Fatalf("close did not drain: version %d pending %d", s.Version(), b.Pending())
	}
	if err := b.Send(graph.EdgeEvent{From: 0, To: 1}); err != ErrStreamClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// TestBatcherLingerFlush covers the delay-triggered commit path.
func TestBatcherLingerFlush(t *testing.T) {
	rng := xrand.New(61)
	initial, _ := randomEventStream(rng, 40, 1, 1)
	s, err := NewStream(StreamConfig{Algorithm: INC, Initial: initial, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.NewBatcher(1000, 10*time.Millisecond)
	defer b.Close()
	if err := b.Send(graph.EdgeEvent{From: 1, To: 2, Op: graph.EdgeInsert}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Version() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("linger flush never committed")
		}
		time.Sleep(time.Millisecond)
	}
}

// itoa avoids importing strconv for test labels.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for v > 0 {
		p--
		buf[p] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[p:])
}
