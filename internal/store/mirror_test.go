package store

import (
	"bytes"
	"testing"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// TestSymmetricStreamReplaysMirrored: a CLUDE stream over an undirected
// graph's symmetric walk matrix keeps factors that are their own
// transpose, so its updates take bennett's symmetric cross path. Which
// path an update takes is read from the factors alone (lu caches it as
// Mirrored), so every copy of them must choose as the live run did:
// history replay from a decoded chain base reproduces each live version
// bit for bit, and so does the previous version written, read back and
// advanced by the record's terms on a fresh workspace — what recovery
// does after reading a snapshot.
func TestSymmetricStreamReplaysMirrored(t *testing.T) {
	const n = 40
	rng := xrand.New(131)
	g0 := randomGraph(n, 60, rng)
	// Flap a pool of edges off and on: updates inside the cluster's USSP.
	pool := g0.Edges()[:4]
	var batches [][]graph.EdgeEvent
	for i := 0; i < 10; i++ {
		op := graph.EdgeDelete
		if i%2 == 1 {
			op = graph.EdgeInsert
		}
		var evs []graph.EdgeEvent
		for _, e := range pool[i/2%2:] {
			evs = append(evs, graph.EdgeEvent{From: e.From, To: e.To, Op: op})
		}
		batches = append(batches, evs)
	}

	var recs []bennett.VersionRecord
	live := map[uint64]*lu.Solver{}
	s, err := core.NewStream(core.StreamConfig{
		Alpha: 0.9, Initial: g0, Derive: graph.SymmetricWalkMatrix(0.85),
		OnPublish: func(sv *lu.Solver, rec bennett.VersionRecord) {
			recs = append(recs, rec)
			live[rec.Version] = sv.Clone()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	s.Close()

	roundTrip := func(sv *lu.Solver) *lu.StaticFactors {
		t.Helper()
		got, err := ReadSolver(bytes.NewReader(encodeSolver(t, sv)))
		if err != nil {
			t.Fatal(err)
		}
		return got.F.(*lu.StaticFactors)
	}
	log := bennett.NewHistoryLog()
	var mw bennett.MaterializeWorkspace
	var base lu.Factors
	baseVer, updates := uint64(0), 0
	for _, rec := range recs {
		log.Record(rec)
		want := live[rec.Version]
		wantBytes := encodeSolver(t, want)
		if !want.F.(*lu.StaticFactors).Mirrored() {
			t.Fatalf("version %d: the live factors are not their own transpose", rec.Version)
		}
		if got := roundTrip(want); !got.Mirrored() || !bytes.Equal(solverBytes(t, got, want.O), wantBytes) {
			t.Fatalf("version %d: the store round trip lost the factors or their mirror (Mirrored %v)", rec.Version, got.Mirrored())
		}
		if rec.Structural {
			base, baseVer = roundTrip(want), rec.Version
			continue
		}
		updates++
		got, err := mw.Materialize(base, log, baseVer, rec.Version, nil)
		if err != nil {
			t.Fatalf("materialize %d from %d: %v", rec.Version, baseVer, err)
		}
		if !bytes.Equal(solverBytes(t, got, want.O), wantBytes) {
			t.Errorf("version %d replayed from %d differs from the live factors", rec.Version, baseVer)
		}
		prev := roundTrip(live[rec.Version-1])
		if err := new(bennett.Workspace).ApplyTerms(prev, rec.Terms, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(solverBytes(t, prev, want.O), wantBytes) {
			t.Errorf("version %d: the decoded version %d advanced by its terms differs from the live factors", rec.Version, rec.Version-1)
		}
	}
	if updates < len(batches)/2 {
		t.Fatalf("%d of %d versions were Bennett updates: the symmetric path barely ran", updates, len(recs))
	}
}
