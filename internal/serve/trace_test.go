package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

// Trace-context propagation tests: a coalesced follower's trace links
// to the leader's span instead of duplicating the solve, a shed query
// still yields a retained (error-tagged) trace, cold traces carry the
// full pipeline stage set, and the warm path stays allocation-free
// with tracing on.

// tracedEngine builds a pinned engine with a retain-everything tracer.
func tracedEngine(t *testing.T, cfg Config) (*Engine, *trace.Tracer) {
	t.Helper()
	tc := trace.New(trace.Config{Buffer: 1024, Sample: 1})
	cfg.Tracer = tc
	eng, _, _ := pinnedEngine(t, cfg)
	return eng, tc
}

func findTrace(tds []*trace.TraceData, pred func(*trace.TraceData) bool) *trace.TraceData {
	for _, td := range tds {
		if pred(td) {
			return td
		}
	}
	return nil
}

func hasSpan(td *trace.TraceData, name string) bool {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestTraceCoalescedFollowerLinksLeader wedges the single worker on
// the leader's solve, lets an identical query coalesce onto its
// flight, and asserts the follower's retained trace records a link to
// the leader's root span — and a coalesce wait instead of solve spans.
func TestTraceCoalescedFollowerLinksLeader(t *testing.T) {
	eng, tc := tracedEngine(t, Config{Workers: 1, QueueDepth: 1, CacheSize: 8})
	defer eng.Close()
	_, _, ref := pinnedEngine(t, Config{Workers: 1})
	g := newGatedLive(ref[0].Clone(), 2) // call 1: leader resolve; call 2: worker solve
	eng.AttachLive(g)

	q := Query{Snapshot: -1, Measure: MeasureRWR, Source: 3}
	leaderDone := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), q)
		leaderDone <- err
	}()
	<-g.entered // worker wedged mid-solve; leader's flight is registered

	followerDone := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), q)
		followerDone <- err
	}()
	waitFor(t, func() bool { return eng.Stats().Coalesced == 1 }, "follower to coalesce")

	close(g.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if err := <-followerDone; err != nil {
		t.Fatal(err)
	}

	all := tc.Recent(trace.Filter{})
	follower := findTrace(all, func(td *trace.TraceData) bool { return td.Link != nil })
	if follower == nil {
		t.Fatalf("no retained trace carries a link; got %d traces", len(all))
	}
	if follower.Attrs["coalesced"] != true {
		t.Fatalf("follower trace not marked coalesced: %+v", follower.Attrs)
	}
	if !hasSpan(follower, "coalesce") {
		t.Fatalf("follower trace has no coalesce span: %+v", follower.Spans)
	}
	if hasSpan(follower, "solve") {
		t.Fatalf("follower trace duplicated the solve span: %+v", follower.Spans)
	}
	leader, ok := tc.Get(follower.Link.TraceID)
	if !ok {
		t.Fatalf("link points at trace %s, which is not retained", follower.Link.TraceID)
	}
	if leader.SpanID != follower.Link.SpanID {
		t.Fatalf("link span %s is not the leader's root span %s", follower.Link.SpanID, leader.SpanID)
	}
	if !hasSpan(leader, "solve") {
		t.Fatalf("leader trace carries no solve span: %+v", leader.Spans)
	}
}

// TestTraceShedQueryRetained wedges the worker, fills the one-slot
// queue, and asserts the shed query's trace is retained with the
// error tag even though tracing runs at sample 0 — tail-based
// retention must keep every failure.
func TestTraceShedQueryRetained(t *testing.T) {
	tc := trace.New(trace.Config{Buffer: 64, Sample: 0})
	eng, _, ref := pinnedEngine(t, Config{
		Workers: 1, QueueDepth: 1, CacheSize: 8, Tracer: tc,
	})
	defer eng.Close()
	g := newGatedLive(ref[0].Clone(), 2)
	eng.AttachLive(g)

	wedged := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 3})
		wedged <- err
	}()
	<-g.entered
	queued := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 5})
		queued <- err
	}()
	waitFor(t, func() bool { return eng.Stats().Admitted == 2 }, "queued query admission")

	_, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 20})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe: got %v, want ErrOverloaded", err)
	}

	// The shed trace must already be in the ring — retention happens
	// before the caller gets its error back.
	shed := findTrace(tc.Recent(trace.Filter{ErrorsOnly: true}), func(td *trace.TraceData) bool {
		return td.Attrs["shed"] == true
	})
	if shed == nil {
		t.Fatal("shed query left no retained error trace")
	}
	if shed.Reason != trace.ReasonError {
		t.Fatalf("shed trace reason = %q, want %q", shed.Reason, trace.ReasonError)
	}
	if shed.Error != ErrOverloaded.Error() {
		t.Fatalf("shed trace error = %q, want %q", shed.Error, ErrOverloaded.Error())
	}
	if !hasSpan(shed, "resolve") {
		t.Fatalf("shed trace lost its resolve span: %+v", shed.Spans)
	}

	close(g.release)
	if err := <-wedged; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

// TestTraceStageSet asserts a cold query's trace carries the full
// pipeline stage set and a cache hit's trace records the hit without
// fabricating pipeline spans it never went through.
func TestTraceStageSet(t *testing.T) {
	eng, tc := tracedEngine(t, Config{Workers: 2, CacheSize: 64})
	defer eng.Close()

	q := Query{Snapshot: 0, Measure: MeasureRWR, Source: 7}
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	cold := tc.Recent(trace.Filter{Limit: 1})[0]
	for _, want := range []string{"resolve", "admit", "batch", "solve"} {
		if !hasSpan(cold, want) {
			t.Fatalf("cold trace missing %q span: %+v", want, cold.Spans)
		}
	}
	if cold.Attrs["measure"] != MeasureRWR || cold.Attrs["cache_hit"] == true {
		t.Fatalf("cold trace attrs: %+v", cold.Attrs)
	}

	resp, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("second identical query missed the cache")
	}
	hit := tc.Recent(trace.Filter{Limit: 1})[0]
	if hit.TraceID == cold.TraceID {
		t.Fatal("cache hit did not produce its own trace")
	}
	if hit.Attrs["cache_hit"] != true {
		t.Fatalf("hit trace attrs: %+v", hit.Attrs)
	}
	if hasSpan(hit, "solve") || hasSpan(hit, "admit") {
		t.Fatalf("hit trace fabricated pipeline spans: %+v", hit.Spans)
	}
	if !hasSpan(hit, "resolve") {
		t.Fatalf("hit trace lost its resolve span: %+v", hit.Spans)
	}
}

// TestTraceExemplarResolvesToRetainedTrace drives one slow-tagged
// query and asserts the latency histogram's exemplar points at a
// trace the ring can actually serve.
func TestTraceExemplarResolvesToRetainedTrace(t *testing.T) {
	eng, tc := tracedEngine(t, Config{Workers: 2, CacheSize: 64})
	defer eng.Close()
	if _, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasurePageRank}); err != nil {
		t.Fatal(err)
	}
	exs := eng.LatencyExemplars()
	if len(exs) == 0 {
		t.Fatal("no latency exemplar after a retained query")
	}
	for _, ex := range exs {
		if _, ok := tc.Get(ex.TraceID); !ok {
			t.Fatalf("exemplar trace %s not in the retention ring", ex.TraceID)
		}
		if ex.BucketLEs <= 0 || ex.ValueUS <= 0 {
			t.Fatalf("exemplar fields: %+v", ex)
		}
	}
	if st := eng.Stats(); len(st.LatencyExemplars) == 0 {
		t.Fatal("Stats does not expose the exemplars")
	}
}

// TestTracingWarmPathZeroAlloc is the serve-level half of the
// acceptance criterion: with tracing on, a warm (cache-hit,
// non-retained) query must allocate exactly what it allocates with
// tracing off — pooled spans, no per-query heap traffic.
func TestTracingWarmPathZeroAlloc(t *testing.T) {
	measure := func(tc *trace.Tracer) float64 {
		eng, _, _ := pinnedEngine(t, Config{Workers: 1, CacheSize: 64, Tracer: tc})
		defer eng.Close()
		q := Query{Snapshot: 0, Measure: MeasureRWR, Source: 3}
		ctx := context.Background()
		if _, err := eng.Query(ctx, q); err != nil { // cold fill + pool warmup
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := eng.Query(ctx, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(nil)
	on := measure(trace.New(trace.Config{Buffer: 64, Slow: time.Hour, Sample: 0}))
	if on != off {
		t.Fatalf("tracing-on warm path allocates %v/query, tracing-off %v: tracing must add zero", on, off)
	}
}
