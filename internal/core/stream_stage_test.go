package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/bennett"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// TestStreamStageHook pins the OnStage contract: per committed batch
// the hook sees validate, apply and publish exactly once, log exactly
// when a LogBatch hook ran, nothing on a rejected batch, and nothing at
// all when no hook is installed (NewStream's version 0 is not a batch).
func TestStreamStageHook(t *testing.T) {
	rng := xrand.New(3)
	initial, batches := randomEventStream(rng, 30, 4, 6)

	counts := map[string]int{}
	logged := 0
	s, err := NewStream(StreamConfig{
		Algorithm: INC,
		Initial:   initial,
		Derive:    graph.RWRMatrix(0.85),
		LogBatch: func(seq uint64, events []graph.EdgeEvent) error {
			logged++
			return nil
		},
		OnStage: func(stage string, d time.Duration) {
			if d < 0 {
				t.Errorf("stage %q: negative duration %v", stage, d)
			}
			counts[stage]++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(counts) != 0 {
		t.Fatalf("stages observed before any batch: %v", counts)
	}

	for i, evs := range batches {
		if _, err := s.Apply(evs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want := len(batches)
	for _, stage := range []string{"validate", "log", "apply", "publish"} {
		if counts[stage] != want {
			t.Fatalf("stage %q observed %d times, want %d (all: %v)", stage, counts[stage], want, counts)
		}
	}
	if logged != want {
		t.Fatalf("LogBatch ran %d times, want %d", logged, want)
	}

	// A rejected batch (validation failure) observes nothing.
	before := counts["validate"]
	if _, err := s.Apply([]graph.EdgeEvent{{From: -1, To: 0, Op: graph.EdgeInsert}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if counts["validate"] != before {
		t.Fatal("rejected batch observed a validate stage")
	}
}

// TestStreamApplySplit pins the apply stage's split as OnStage reports
// it: a batch inside the cluster and the USSP is PartDelta + PartUpdate,
// a batch that grows the union is PartDelta + PartOrder + PartFactorize,
// the parts never exceed the apply stage they split, and version 0
// reports nothing.
func TestStreamApplySplit(t *testing.T) {
	initial, _ := randomEventStream(xrand.New(3), 30, 0, 0)
	var seen []string
	total := map[string]time.Duration{}
	s, err := NewStream(StreamConfig{
		Algorithm: CLUDE, Alpha: 0.5, Initial: initial, Derive: graph.RWRMatrix(0.85),
		OnStage: func(stage string, d time.Duration) {
			seen = append(seen, stage)
			total[stage] += d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(seen) != 0 {
		t.Fatalf("version 0 reported %v", seen)
	}
	e := initial.Edges()[0]
	fresh := graph.Edge{From: 1, To: 2}
	for initial.HasEdge(fresh.From, fresh.To) {
		fresh.To++
	}
	for _, tc := range []struct {
		name string
		ev   graph.EdgeEvent
		want []string
	}{
		{"toggle", graph.EdgeEvent{From: e.From, To: e.To, Op: graph.EdgeDelete}, []string{"validate", PartDelta, PartUpdate, "apply", "publish"}},
		{"growth", graph.EdgeEvent{From: fresh.From, To: fresh.To, Op: graph.EdgeInsert}, []string{"validate", PartDelta, PartOrder, PartFactorize, "apply", "publish"}},
	} {
		seen = seen[:0]
		if _, err := s.Apply([]graph.EdgeEvent{tc.ev}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seen, tc.want) {
			t.Fatalf("%s batch reported %v, want %v", tc.name, seen, tc.want)
		}
	}
	if parts := total[PartDelta] + total[PartUpdate] + total[PartOrder] + total[PartFactorize]; parts > total["apply"] {
		t.Fatalf("parts add up to %v, more than apply's %v", parts, total["apply"])
	}
}

// TestStreamPublishHook pins the OnPublish contract: it fires for
// version 0 inside NewStream and for the restored version inside
// RestoreStream, then once per published version, under the write lock,
// with rec.Version equal to the version Apply (or ReplayBatch) goes on
// to return; a batch that fails — at validation or in its strategy step —
// and a replayed record the state already covers fire nothing.
func TestStreamPublishHook(t *testing.T) {
	initial, batches := randomEventStream(xrand.New(61), 60, 3, 8)
	fresh := graph.Edge{From: 7, To: 11}
	for initial.HasEdge(fresh.From, fresh.To) {
		fresh.To++
	}
	gate := initial.Edges()[1]
	singular := append(slices.Clone(batches[2]),
		graph.EdgeEvent{From: fresh.From, To: fresh.To, Op: graph.EdgeInsert},
		graph.EdgeEvent{From: gate.From, To: gate.To, Op: graph.EdgeDelete})

	// hook records into recs and checks the lock of the stream *sp points
	// at (still nil while NewStream / RestoreStream publish: nobody else
	// holds the stream yet).
	hook := func(sp **Stream, recs *[]bennett.VersionRecord) func(*lu.Solver, bennett.VersionRecord) {
		return func(sv *lu.Solver, rec bennett.VersionRecord) {
			if sv == nil {
				t.Errorf("version %d published without a solver", rec.Version)
			}
			if s := *sp; s != nil && s.mu.TryRLock() {
				s.mu.RUnlock()
				t.Errorf("version %d published without the write lock held", rec.Version)
			}
			*recs = append(*recs, rec)
		}
	}
	// last reports the newest record's version, once exactly want
	// records have been seen.
	last := func(recs []bennett.VersionRecord, want int, when string) uint64 {
		t.Helper()
		if len(recs) != want {
			t.Fatalf("%s: %d records, want %d", when, len(recs), want)
		}
		return recs[want-1].Version
	}

	var s *Stream
	var recs []bennett.VersionRecord
	cfg := StreamConfig{
		Algorithm: CLUDE, Alpha: 0.5, Initial: initial,
		Derive:    sentinelDeriver{graph.RWRMatrix(0.85), fresh, gate},
		OnPublish: hook(&s, &recs),
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v := last(recs, 1, "NewStream"); v != 0 || !recs[0].Structural {
		t.Fatalf("NewStream published version %d (structural %v), want a structural version 0", v, recs[0].Structural)
	}
	var mid *StreamState
	for i, evs := range batches[:2] {
		v, err := s.Apply(evs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if got := last(recs, i+2, "Apply"); got != v {
			t.Fatalf("batch %d: record says version %d, Apply returned %d", i, got, v)
		}
		if i == 0 {
			if mid, err = s.ExportState(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Apply([]graph.EdgeEvent{{From: -1, To: 0, Op: graph.EdgeInsert}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if v, err := s.Apply(singular); err == nil {
		t.Fatalf("singular batch published version %d", v)
	}
	last(recs, 3, "after two failed batches")

	// Recovery: the restored version, then every replayed batch the
	// state does not cover, the failing one failing again.
	var r *Stream
	var replayed []bennett.VersionRecord
	cfg.OnPublish = hook(&r, &replayed)
	r, err = RestoreStream(cfg, mid)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := last(replayed, 1, "RestoreStream"); v != mid.Version || !replayed[0].Structural {
		t.Fatalf("RestoreStream published version %d (structural %v), want a structural version %d", v, replayed[0].Structural, mid.Version)
	}
	if _, err := r.ReplayBatch(1, batches[0]); err != nil {
		t.Fatal(err)
	}
	last(replayed, 1, "a replayed record the state covers")
	v, err := r.ReplayBatch(2, batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if got := last(replayed, 2, "ReplayBatch"); got != v || v != recs[2].Version {
		t.Fatalf("replayed record says version %d, ReplayBatch returned %d, the live run published %d", got, v, recs[2].Version)
	}
	if replayed[1].Structural != recs[2].Structural || !sameTerms(replayed[1].Terms, recs[2].Terms) {
		t.Fatal("replayed record differs from the live run's")
	}
	if _, err := r.ReplayBatch(3, singular); err == nil {
		t.Fatal("singular batch replayed cleanly")
	}
	last(replayed, 2, "after the replayed failure")
}
