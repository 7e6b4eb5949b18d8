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

// samples lists the named samples of a BatchTrace's stages or parts.
func samples(ss []StageSample) []StageSample {
	var out []StageSample
	for _, s := range ss {
		if s.Name != "" {
			out = append(out, s)
		}
	}
	return out
}

// TestStreamStageHook pins the stages OnBatch reports: per committed
// batch validate, apply and publish exactly once, log exactly when a
// LogBatch hook ran, none on a rejected batch, and no batch at all
// before the first Apply (NewStream's version 0 is not a batch).
func TestStreamStageHook(t *testing.T) {
	rng := xrand.New(3)
	initial, batches := randomEventStream(rng, 30, 4, 6)

	counts := map[string]int{}
	logged := 0
	s, err := NewStream(StreamConfig{
		Initial: initial,
		Derive:  graph.RWRMatrix(0.85),
		LogBatch: func(seq uint64, events []graph.EdgeEvent) error {
			logged++
			return nil
		},
		OnBatch: func(bt BatchTrace) {
			for _, st := range samples(bt.Stages[:]) {
				if st.D < 0 {
					t.Errorf("stage %q: negative duration %v", st.Name, st.D)
				}
				counts[st.Name]++
			}
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

// TestStreamApplySplit pins the apply stage's split as BatchTrace.Parts
// reports it: a batch inside the cluster and the USSP is PartDelta +
// PartUpdate, a batch that grows the union within the β rule is
// PartDelta + PartOrder + PartFactorize + PartUpdate, or PartDelta +
// PartOrder + PartUpdate when its positions fell on fill, and counts
// one kept growth, one that grows it past the rule is PartDelta +
// PartOrder + PartFactorize and counts one rebuild, a batch whose
// step fails reports the parts it ran and neither apply nor publish,
// the parts never exceed the apply stage they split, and version 0
// reports nothing.
func TestStreamApplySplit(t *testing.T) {
	initial, _ := randomEventStream(xrand.New(3), 30, 0, 0)
	e, gate := initial.Edges()[0], initial.Edges()[1]
	sentinel := graph.Edge{From: 4, To: 7}
	for initial.HasEdge(sentinel.From, sentinel.To) {
		sentinel.To++
	}
	toggle := []graph.EdgeEvent{{From: e.From, To: e.To, Op: graph.EdgeDelete}}
	grown := keptEdge(t, initial, 0.3, [][]graph.EdgeEvent{toggle}, true)
	grownBatch := []graph.EdgeEvent{{From: grown.From, To: grown.To, Op: graph.EdgeInsert}}
	onFill := keptEdge(t, initial, 0.3, [][]graph.EdgeEvent{toggle, grownBatch}, false)
	// Every absent edge from the first eight vertices but the sentinel:
	// far past what one ordering keeps within the bound.
	var burst []graph.EdgeEvent
	for u := 0; u < 8; u++ {
		for v := 0; v < initial.N(); v++ {
			if e := (graph.Edge{From: u, To: v}); u != v && !initial.HasEdge(u, v) && e != sentinel && e != grown && e != onFill {
				burst = append(burst, graph.EdgeEvent{From: u, To: v, Op: graph.EdgeInsert})
			}
		}
	}
	var seen []string
	total := map[string]time.Duration{}
	add := func(ss []StageSample) {
		for _, st := range ss {
			seen = append(seen, st.Name)
			total[st.Name] += st.D
		}
	}
	s, err := NewStream(StreamConfig{
		Alpha: 0.3, Initial: initial,
		Derive: sentinelDeriver{graph.RWRMatrix(0.85), sentinel, gate},
		OnBatch: func(bt BatchTrace) {
			// The parts split the apply stage: list them in its place, or
			// after the stages a failed batch ran.
			stages := samples(bt.Stages[:])
			at := len(stages)
			for i, st := range stages {
				if st.Name == "apply" {
					at = i
				}
			}
			add(stages[:at])
			add(samples(bt.Parts[:]))
			add(stages[at:])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(seen) != 0 {
		t.Fatalf("version 0 reported %v", seen)
	}
	for _, tc := range []struct {
		name string
		evs  []graph.EdgeEvent
		want []string
		kept bool
	}{
		{"toggle", toggle, []string{"validate", PartDelta, PartUpdate, "apply", "publish"}, false},
		{"kept growth", grownBatch, []string{"validate", PartDelta, PartOrder, PartFactorize, PartUpdate, "apply", "publish"}, true},
		{"kept on fill", []graph.EdgeEvent{{From: onFill.From, To: onFill.To, Op: graph.EdgeInsert}}, []string{"validate", PartDelta, PartOrder, PartUpdate, "apply", "publish"}, true},
		{"rebuild", burst, []string{"validate", PartDelta, PartOrder, PartFactorize, "apply", "publish"}, false},
		{"singular", []graph.EdgeEvent{{From: sentinel.From, To: sentinel.To, Op: graph.EdgeInsert}, {From: gate.From, To: gate.To, Op: graph.EdgeDelete}}, []string{"validate", PartDelta, PartOrder, PartUpdate, PartFactorize}, false},
	} {
		seen = seen[:0]
		clear(total)
		before := s.Stats()
		_, err := s.Apply(tc.evs)
		if (err != nil) != (tc.name == "singular") {
			t.Fatalf("%s batch: error %v", tc.name, err)
		}
		if !slices.Equal(seen, tc.want) {
			t.Fatalf("%s batch reported %v, want %v", tc.name, seen, tc.want)
		}
		if parts := total[PartDelta] + total[PartUpdate] + total[PartOrder] + total[PartFactorize]; err == nil && parts > total["apply"] {
			t.Fatalf("%s batch: parts add up to %v, more than apply's %v", tc.name, parts, total["apply"])
		}
		after := s.Stats()
		if tc.name == "rebuild" && after.StructRebuilds != before.StructRebuilds+1 {
			t.Fatalf("rebuild batch: %d rebuilds before, %d after", before.StructRebuilds, after.StructRebuilds)
		}
		if kept := after.KeptGrowths == before.KeptGrowths+1; kept != tc.kept || kept && after.StructRebuilds != before.StructRebuilds {
			t.Fatalf("%s batch: stats %+v before, %+v after", tc.name, before, after)
		}
	}
}

// TestStreamPublishHook pins the OnPublish contract: it fires for
// version 0 inside NewStream and for the restored version inside
// RestoreStream, then once per published version, under the write lock,
// with rec.Version equal to the version Apply (or ReplayBatch) goes on
// to return; a batch that fails — at validation or in its CLUDE step —
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
		Alpha: 0.5, Initial: initial,
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
