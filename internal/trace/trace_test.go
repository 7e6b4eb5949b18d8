package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{Sample: 1}).Start("query", SpanContext{})
	sc := tr.Context()
	tr.Finish(nil)
	if !sc.Valid() {
		t.Fatal("context of a started trace must be valid")
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(hdr), hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", hdr)
	}
	if got != sc {
		t.Fatalf("round trip mismatch: %+v != %+v", got, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version ff reserved
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01", // bad hex
		"000af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc, ok := ParseTraceparent(good)
	if !ok || !sc.Sampled {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v", good, sc, ok)
	}
}

func TestParentAdoption(t *testing.T) {
	tc := New(Config{Sample: 1})
	parent, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	ctx := WithParent(context.Background(), parent)
	tr := tc.StartRequest(ctx, "query")
	if tr.ID() != parent.Trace {
		t.Fatalf("trace did not adopt inbound trace id: %s != %s", tr.ID(), parent.Trace)
	}
	out := tr.Finish(nil)
	td, ok := tc.Get(out.ID.String())
	if !ok {
		t.Fatal("retained trace not found")
	}
	if td.Parent != parent.Span.String() {
		t.Fatalf("parent span = %q, want %q", td.Parent, parent.Span.String())
	}
}

func TestRetentionPolicy(t *testing.T) {
	tc := New(Config{Slow: 10 * time.Millisecond, Sample: 0})

	// Fast success, sample 0: dropped.
	out := tc.Start("q", SpanContext{}).Finish(nil)
	if out.Retained {
		t.Fatal("fast successful trace retained at sample 0")
	}

	// Error: always retained.
	out = tc.Start("q", SpanContext{}).Finish(errors.New("boom"))
	if !out.Retained || out.Reason != ReasonError {
		t.Fatalf("error trace: %+v", out)
	}
	if td, ok := tc.Get(out.ID.String()); !ok || td.Error != "boom" {
		t.Fatalf("error trace data: %+v %v", td, ok)
	}

	// Slow: always retained. The trace is backdated past the threshold
	// rather than slept through, so the host's scheduler cannot move it.
	out = tc.StartAt("q", SpanContext{}, time.Now().Add(-12*time.Millisecond)).Finish(nil)
	if !out.Retained || out.Reason != ReasonSlow {
		t.Fatalf("slow trace: %+v", out)
	}

	// Sample 1: everything retained.
	all := New(Config{Sample: 1})
	out = all.Start("q", SpanContext{}).Finish(nil)
	if !out.Retained || out.Reason != ReasonSampled {
		t.Fatalf("sampled trace: %+v", out)
	}

	st := tc.Stats()
	if st.Started != 3 || st.RetainedError != 1 || st.RetainedSlow != 1 || st.Retained != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSpansAttrsAndLink(t *testing.T) {
	tc := New(Config{Sample: 1, MaxSpans: 2})
	leader := tc.Start("query", SpanContext{})
	leaderCtx := leader.Context()

	tr := tc.Start("query", SpanContext{})
	tr.Root().SetString("measure", "rwr")
	tr.Root().SetInt("snapshot", -1)
	tr.Root().SetBool("coalesced", true)
	tr.Root().SetFloat("damping", 0.85)
	base := time.Now()
	tr.Record("resolve", base, 5*time.Microsecond)
	sp := tr.StartSpan("solve")
	sp.SetInt("block_width", 8)
	sp.End()
	tr.Record("overflow", base, time.Microsecond) // exceeds MaxSpans=2
	tr.Link(leaderCtx)
	out := tr.Finish(nil)
	leader.Finish(nil)

	td, ok := tc.Get(out.ID.String())
	if !ok {
		t.Fatal("trace not retained")
	}
	if td.Attrs["measure"] != "rwr" || td.Attrs["snapshot"] != int64(-1) ||
		td.Attrs["coalesced"] != true || td.Attrs["damping"] != 0.85 {
		t.Fatalf("root attrs: %+v", td.Attrs)
	}
	if len(td.Spans) != 2 || td.Spans[0].Name != "resolve" || td.Spans[1].Name != "solve" {
		t.Fatalf("spans: %+v", td.Spans)
	}
	if td.Spans[1].Attrs["block_width"] != int64(8) {
		t.Fatalf("span attrs: %+v", td.Spans[1].Attrs)
	}
	if td.DroppedSpans != 1 {
		t.Fatalf("dropped spans = %d, want 1", td.DroppedSpans)
	}
	if td.Link == nil || td.Link.TraceID != leaderCtx.Trace.String() || td.Link.SpanID != leaderCtx.Span.String() {
		t.Fatalf("link: %+v, want leader %v", td.Link, leaderCtx)
	}
}

func TestRingOverwriteAndFilters(t *testing.T) {
	tc := New(Config{Buffer: 4, Sample: 1})
	for i := 0; i < 10; i++ {
		tr := tc.Start("q", SpanContext{})
		tr.Root().SetInt("i", int64(i))
		if i%2 == 0 {
			tr.Finish(fmt.Errorf("err %d", i))
		} else {
			tr.Finish(nil)
		}
	}
	all := tc.Recent(Filter{})
	if len(all) != 4 {
		t.Fatalf("ring holds %d, want 4", len(all))
	}
	if all[0].Attrs["i"] != int64(9) || all[3].Attrs["i"] != int64(6) {
		t.Fatalf("order: %v %v", all[0].Attrs, all[3].Attrs)
	}
	errs := tc.Recent(Filter{ErrorsOnly: true})
	if len(errs) != 2 {
		t.Fatalf("errors-only: %d, want 2", len(errs))
	}
	limited := tc.Recent(Filter{Limit: 1})
	if len(limited) != 1 || limited[0].Attrs["i"] != int64(9) {
		t.Fatalf("limit: %+v", limited)
	}
	if st := tc.Stats(); st.Buffered != 4 {
		t.Fatalf("buffered = %d, want 4", st.Buffered)
	}
}

func TestNilTracerAndNilHandles(t *testing.T) {
	var tc *Tracer
	tr := tc.StartRequest(context.Background(), "q")
	if tr != nil {
		t.Fatal("nil tracer must yield nil trace")
	}
	// Every operation on nil handles must be a safe no-op.
	tr.Root().SetString("k", "v")
	sp := tr.StartSpan("s")
	sp.SetInt("k", 1)
	sp.End()
	tr.Record("r", time.Now(), time.Microsecond)
	tr.Link(SpanContext{})
	if out := tr.Finish(errors.New("x")); out.Retained {
		t.Fatal("nil trace retained")
	}
	if tc.Recent(Filter{}) != nil {
		t.Fatal("nil tracer returned traces")
	}
	if _, ok := tc.Get("x"); ok {
		t.Fatal("nil tracer get")
	}
	if st := tc.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer stats: %+v", st)
	}
	if tc.SlowThreshold() != 0 {
		t.Fatal("nil tracer slow threshold")
	}
}

func TestOnRetainHook(t *testing.T) {
	var mu sync.Mutex
	var got []*TraceData
	tc := New(Config{Sample: 1, OnRetain: func(td *TraceData) {
		mu.Lock()
		got = append(got, td)
		mu.Unlock()
	}})
	out := tc.Start("q", SpanContext{}).Finish(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].TraceID != out.ID.String() {
		t.Fatalf("OnRetain: %+v", got)
	}
}

func TestConcurrentTraces(t *testing.T) {
	tc := New(Config{Buffer: 64, Sample: 1})
	var wg sync.WaitGroup
	seen := make(map[string]bool)
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := tc.Start("q", SpanContext{})
				tr.StartSpan("s").End()
				out := tr.Finish(nil)
				mu.Lock()
				if seen[out.ID.String()] {
					t.Errorf("duplicate trace id %s", out.ID)
				}
				seen[out.ID.String()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if st := tc.Stats(); st.Started != 400 || st.Retained != 400 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWarmPathZeroAlloc is the package-level half of the acceptance
// criterion: a full start → spans → attrs → finish cycle on a
// non-retained trace must not touch the heap once the pool is warm.
func TestWarmPathZeroAlloc(t *testing.T) {
	tc := New(Config{Slow: time.Hour, Sample: 0})
	start := time.Now()
	run := func() {
		tr := tc.Start("query", SpanContext{})
		tr.Root().SetString("measure", "rwr")
		tr.Root().SetInt("snapshot", -1)
		tr.Record("resolve", start, 3*time.Microsecond)
		sp := tr.StartSpan("solve")
		sp.SetInt("block_width", 4)
		sp.End()
		tr.Finish(nil)
	}
	run() // warm the pool
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("allocs per non-retained trace = %v, want 0", n)
	}
}
