package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
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
