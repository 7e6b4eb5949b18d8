package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/trace"
)

// tracedServer is liveServer with tracing on everywhere it can be:
// the serve hot path, the /v1/traces routes, the ingest OnBatch
// synthesis hook, and the clude_traces_* counters. Sample 1 retains
// every trace so assertions are deterministic.
func tracedServer(t *testing.T) (*httptest.Server, *trace.Tracer, func()) {
	t.Helper()
	tc := trace.New(trace.Config{Buffer: 64, Sample: 1})
	g := graph.New(6, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
	})
	reg := metrics.NewRegistry()
	stream, err := core.NewStream(core.StreamConfig{
		Initial: g,
		Derive:  graph.RWRMatrix(0.85),
		OnBatch: IngestHook(reg, tc),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.New(serve.Config{Damping: 0.85, Workers: 1, Tracer: tc})
	eng.AttachLive(stream)
	srv := httptest.NewServer(New(Options{
		Engine:   eng,
		Stream:   stream,
		Batcher:  stream.NewBatcher(4, 0),
		Registry: reg,
		Tracer:   tc,
	}))
	return srv, tc, func() {
		srv.Close()
		stream.Close()
		eng.Close()
	}
}

// TestTracesListAndLookup drives one query through the traced engine
// and asserts the ring is servable over HTTP: the listing carries the
// trace with its tracer stats, and the per-id route returns the full
// span tree for exactly the ids the listing advertised.
func TestTracesListAndLookup(t *testing.T) {
	srv, _, done := tracedServer(t)
	defer done()

	if code, _ := getJSON(t, srv.URL+"/v1/query?measure=rwr&source=2"); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	code, body := getJSON(t, srv.URL+"/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("/v1/traces: status %d: %v", code, body)
	}
	traces, ok := body["traces"].([]interface{})
	if !ok || len(traces) == 0 {
		t.Fatalf("/v1/traces returned no traces: %v", body)
	}
	stats, ok := body["stats"].(map[string]interface{})
	if !ok || stats["retained"].(float64) < 1 {
		t.Fatalf("/v1/traces stats: %v", body["stats"])
	}
	first := traces[0].(map[string]interface{})
	id, _ := first["trace_id"].(string)
	if len(id) != 32 {
		t.Fatalf("trace_id %q is not 32 hex chars", id)
	}

	code, td := getJSON(t, srv.URL+"/v1/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("/v1/traces/%s: status %d: %v", id, code, td)
	}
	if td["trace_id"] != id || td["name"] != "query" {
		t.Fatalf("trace lookup mismatch: %v", td)
	}
	spans, _ := td["spans"].([]interface{})
	names := make(map[string]bool)
	for _, sp := range spans {
		names[sp.(map[string]interface{})["name"].(string)] = true
	}
	for _, want := range []string{"resolve", "admit", "batch", "solve"} {
		if !names[want] {
			t.Fatalf("trace %s missing %q span: %v", id, want, names)
		}
	}

	code, miss := getJSON(t, srv.URL+"/v1/traces/00000000000000000000000000000000")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d: %v", code, miss)
	}
	ec, _ := envelope(t, miss)
	if ec != "not_found" {
		t.Fatalf("unknown trace id: code %q", ec)
	}
}

// TestTracesFiltersAndParamDiscipline pins the listing's parameter
// contract: the error filter selects only failed traces, and unknown
// or malformed parameters are 400s, never silently ignored.
func TestTracesFiltersAndParamDiscipline(t *testing.T) {
	srv, _, done := tracedServer(t)
	defer done()

	if code, _ := getJSON(t, srv.URL+"/v1/query?measure=rwr&source=2"); code != http.StatusOK {
		t.Fatal("seed query failed")
	}
	// A query against a snapshot that does not exist fails at resolve
	// and must land in the ring as an error trace.
	if code, _ := getJSON(t, srv.URL+"/v1/query?measure=rwr&source=2&snapshot=99"); code != http.StatusNotFound {
		t.Fatal("expected 404 for unknown snapshot")
	}
	code, body := getJSON(t, srv.URL+"/v1/traces?error=true")
	if code != http.StatusOK {
		t.Fatalf("error filter: status %d", code)
	}
	traces, _ := body["traces"].([]interface{})
	if len(traces) == 0 {
		t.Fatal("error filter returned no traces after a failed query")
	}
	for _, tr := range traces {
		td := tr.(map[string]interface{})
		if td["reason"] != trace.ReasonError {
			t.Fatalf("error filter leaked non-error trace: %v", td)
		}
	}

	for _, bad := range []string{"?bogus=1", "?min_ms=abc", "?limit=0", "?error=maybe"} {
		if code, _ := getJSON(t, srv.URL+"/v1/traces"+bad); code != http.StatusBadRequest {
			t.Fatalf("/v1/traces%s: status %d, want 400", bad, code)
		}
	}
	// min_ms well above any real duration filters everything out but
	// stays a valid, empty listing.
	code, body = getJSON(t, srv.URL+"/v1/traces?min_ms=60000")
	if code != http.StatusOK {
		t.Fatalf("min_ms filter: status %d", code)
	}
	if traces, _ := body["traces"].([]interface{}); len(traces) != 0 {
		t.Fatalf("min_ms=60000 still returned %d traces", len(traces))
	}
}

// TestTracesDisabled pins the no-tracer contract: the routes exist but
// answer 404 with a hint, and nothing else changes.
func TestTracesDisabled(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()
	code, body := getJSON(t, srv.URL+"/v1/traces")
	if code != http.StatusNotFound {
		t.Fatalf("/v1/traces without tracer: status %d", code)
	}
	_, msg := envelope(t, body)
	if !strings.Contains(msg, "trace-buffer") {
		t.Fatalf("disabled message should name the flag: %q", msg)
	}
}

// TestIngestTraceSynthesis posts a synchronous update and asserts the
// OnBatch hook synthesized a backdated ingest trace: contiguous stage
// spans and the batch attrs, with the root starting at batch start.
func TestIngestTraceSynthesis(t *testing.T) {
	srv, tc, done := tracedServer(t)
	defer done()

	resp, err := http.Post(srv.URL+"/v1/update?sync=1", "application/json",
		strings.NewReader(`{"events":[{"from":0,"to":3},{"from":5,"to":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}

	ingest := findIngestTrace(tc)
	if ingest == nil {
		t.Fatal("no ingest trace retained after a sync update")
	}
	if ingest.Attrs["events"] != int64(2) || ingest.Attrs["applied"] != int64(2) {
		t.Fatalf("ingest trace attrs: %v", ingest.Attrs)
	}
	if v, _ := ingest.Attrs["version"].(int64); v < 1 {
		t.Fatalf("ingest trace version attr: %v", ingest.Attrs)
	}
	// No store bound, so the stage set is validate/apply/publish, laid
	// end to end from the trace start.
	var offset float64
	for i, want := range []string{"validate", "apply", "publish"} {
		if i >= len(ingest.Spans) {
			t.Fatalf("ingest trace has %d spans, want %q at %d", len(ingest.Spans), want, i)
		}
		sp := ingest.Spans[i]
		if sp.Name != want {
			t.Fatalf("stage %d = %q, want %q", i, sp.Name, want)
		}
		if sp.OffsetUS+0.01 < offset { // µs-scale epsilon for float accumulation
			t.Fatalf("stage %q offset %v overlaps previous end %v", want, sp.OffsetUS, offset)
		}
		offset = sp.OffsetUS + sp.DurationUS
	}
	if ingest.DurationUS+1 < offset { // +1µs slack for rounding
		t.Fatalf("ingest root duration %vµs shorter than its stages (%vµs): root not backdated",
			ingest.DurationUS, offset)
	}
}

// TestIngestTraceKeepsFailedBatches pins the tail-retention contract
// on the ingest side with sampling off: a batch that fails validation
// must still land in the ring as an error trace.
func TestIngestTraceKeepsFailedBatches(t *testing.T) {
	tc := trace.New(trace.Config{Buffer: 16, Sample: 0})
	g := graph.New(4, false, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	stream, err := core.NewStream(core.StreamConfig{
		Initial: g,
		Derive:  graph.RWRMatrix(0.85),
		OnBatch: IngestHook(metrics.NewRegistry(), tc),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	// An out-of-range endpoint fails batch validation.
	if _, err := stream.Apply([]graph.EdgeEvent{{From: 0, To: 99}}); err == nil {
		t.Fatal("expected validation failure")
	}
	td := findIngestTrace(tc)
	if td == nil {
		t.Fatal("failed batch left no retained ingest trace")
	}
	if td.Reason != trace.ReasonError || td.Error == "" {
		t.Fatalf("failed batch trace: reason %q error %q", td.Reason, td.Error)
	}

	// A successful batch at sample 0 under the slow threshold is not
	// retained — tail-based, not head-based.
	before := tc.Stats().Retained
	if _, err := stream.Apply([]graph.EdgeEvent{{From: 0, To: 3}}); err != nil {
		t.Fatal(err)
	}
	if after := tc.Stats().Retained; after != before {
		t.Fatalf("unsampled healthy batch was retained (%d -> %d)", before, after)
	}
}

func findIngestTrace(tc *trace.Tracer) *trace.TraceData {
	for _, td := range tc.Recent(trace.Filter{}) {
		if td.Name == "ingest" {
			return td
		}
	}
	return nil
}

// TestTraceMetricsRegistered scrapes /v1/metrics on a traced server
// and asserts the retention counters are exposed and consistent with
// the tracer's own stats.
func TestTraceMetricsRegistered(t *testing.T) {
	srv, tc, done := tracedServer(t)
	defer done()
	if code, _ := getJSON(t, srv.URL+"/v1/query?measure=rwr&source=1"); code != http.StatusOK {
		t.Fatal("seed query failed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for tc.Stats().Retained == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"clude_traces_started_total",
		"clude_traces_retained_total",
		`clude_traces_retained_reason_total{reason="sampled"}`,
		"clude_traces_buffered",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/v1/metrics missing %q", want)
		}
	}
}
