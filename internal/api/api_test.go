package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// liveServer builds a minimal streaming-mode server: a tiny INC stream
// attached to a one-worker serve engine, behind the /v1 API.
func liveServer(t *testing.T) (*httptest.Server, *core.Stream, func()) {
	t.Helper()
	g := graph.New(6, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
	})
	reg := metrics.NewRegistry()
	stream, err := core.NewStream(core.StreamConfig{
		Initial: g,
		Derive:  graph.RWRMatrix(0.85),
		OnBatch: IngestHook(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.New(serve.Config{Damping: 0.85, Workers: 1})
	eng.AttachLive(stream)
	srv := httptest.NewServer(New(Options{
		Engine:   eng,
		Stream:   stream,
		Batcher:  stream.NewBatcher(4, 0),
		Registry: reg,
	}))
	return srv, stream, func() {
		srv.Close()
		stream.Close()
		eng.Close()
	}
}

func getJSON(t *testing.T, url string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: non-JSON response: %v", url, err)
	}
	return resp.StatusCode, body
}

// envelope extracts the {"error":{"code","message"}} body, failing the
// test when the response is not envelope-shaped.
func envelope(t *testing.T, body map[string]interface{}) (code, message string) {
	t.Helper()
	e, ok := body["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("error response without envelope: %v", body)
	}
	code, _ = e["code"].(string)
	message, _ = e["message"].(string)
	if code == "" || message == "" {
		t.Fatalf("envelope missing code or message: %v", e)
	}
	return code, message
}

// TestQueryRejectsUnknownParams pins the contract that /v1/query
// answers exactly the question asked: a typoed or foreign URL parameter
// is a 400 whose envelope names it, never a silently different answer.
func TestQueryRejectsUnknownParams(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	code, _ := getJSON(t, srv.URL+"/v1/query?measure=rwr&source=2")
	if code != http.StatusOK {
		t.Fatalf("valid query: status %d", code)
	}

	cases := []struct {
		name, url string
		wantIn    string
	}{
		{"typoed param", "/v1/query?measure=rwr&sorce=2", "sorce"},
		{"foreign param", "/v1/query?measure=pagerank&verbose=1", "verbose"},
		{"duplicate param", "/v1/query?measure=rwr&source=2&source=3", "source"},
		{"malformed source", "/v1/query?measure=rwr&source=two", "two"},
		{"malformed snapshot", "/v1/query?measure=rwr&source=1&snapshot=x", "x"},
		{"malformed k", "/v1/query?measure=topk&source=1&k=ten", "ten"},
		{"malformed sources", "/v1/query?measure=ppr&sources=1,zz", "zz"},
		{"malformed damping", "/v1/query?measure=rwr&source=1&damping=high", "high"},
	}
	for _, tc := range cases {
		status, body := getJSON(t, srv.URL+tc.url)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
			continue
		}
		ecode, msg := envelope(t, body)
		if ecode != "bad_request" {
			t.Errorf("%s: envelope code %q, want bad_request", tc.name, ecode)
		}
		if !strings.Contains(msg, tc.wantIn) {
			t.Errorf("%s: error %q does not name the offender %q", tc.name, msg, tc.wantIn)
		}
	}
}

// TestQueryPostRejectsUnknownFields is the JSON-body twin.
func TestQueryPostRejectsUnknownFields(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"measure":"rwr","source":1,"sorce":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown JSON field: status %d, want 400", resp.StatusCode)
	}
	if code, _ := envelope(t, body); code != "bad_request" {
		t.Fatalf("unknown JSON field: envelope code %q, want bad_request", code)
	}

	resp, err = http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"measure":"rwr","source":1,"snapshot":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid JSON query: status %d, want 200", resp.StatusCode)
	}
}

// TestUpdateAndStatsEndpoints smoke-tests the ingest + stats loop the
// crash-recovery CI job drives over a real binary.
func TestUpdateAndStatsEndpoints(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	resp, err := http.Post(srv.URL+"/v1/update?sync=1", "application/json",
		strings.NewReader(`{"events":[{"from":0,"to":5,"op":"insert"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync update: status %d", resp.StatusCode)
	}
	if v, _ := out["version"].(float64); v != 1 {
		t.Fatalf("sync update version = %v, want 1", out["version"])
	}

	code, stats := getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	stream, _ := stats["stream"].(map[string]interface{})
	if stream == nil {
		t.Fatal("/v1/stats missing stream section in streaming mode")
	}
	if v, _ := stream["version"].(float64); v != 1 {
		t.Errorf("stream version in /v1/stats = %v, want 1", stream["version"])
	}

	// A malformed event must be rejected before it can poison the batch.
	resp, err = http.Post(srv.URL+"/v1/update", "application/json",
		strings.NewReader(`{"events":[{"from":0,"to":99}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var bad map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range event: status %d, want 400", resp.StatusCode)
	}
	envelope(t, bad)
}

// TestMethodDiscipline pins 405 + Allow on every route.
func TestMethodDiscipline(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	cases := []struct {
		method, path, wantAllow string
	}{
		{http.MethodDelete, "/v1/query", "GET, HEAD, POST"},
		{http.MethodPut, "/v1/query", "GET, HEAD, POST"},
		{http.MethodGet, "/v1/update", "POST"},
		{http.MethodPost, "/v1/snapshots", "GET, HEAD"},
		{http.MethodPost, "/v1/stats", "GET, HEAD"},
		{http.MethodPost, "/v1/metrics", "GET, HEAD"},
		{http.MethodPost, "/v1/healthz", "GET, HEAD"},
		{http.MethodPost, "/v1/traces", "GET, HEAD"},
		{http.MethodDelete, "/v1/traces/abc", "GET, HEAD"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: non-JSON 405 body: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if code, _ := envelope(t, body); code != "method_not_allowed" {
			t.Errorf("%s %s: envelope code %q, want method_not_allowed", tc.method, tc.path, code)
		}
	}
}

// TestUnroutedPathsAnswerEnvelope pins the envelope promise on paths
// the table does not route: 404 not_found as application/json, never
// net/http's text/plain page; a bare path whose /v1 twin is routed names
// the twin; and the /v1 routes themselves are untouched by the
// catch-all.
func TestUnroutedPathsAnswerEnvelope(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	fetch := func(method, path string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), b
	}
	for _, tc := range []struct {
		method, path, twin string
	}{
		{http.MethodGet, "/query?measure=rwr&source=3", "/v1/query"},
		{http.MethodPost, "/update?sync=1", "/v1/update"},
		{http.MethodGet, "/snapshots", "/v1/snapshots"},
		{http.MethodGet, "/stats", "/v1/stats"},
		{http.MethodGet, "/metrics", "/v1/metrics"},
		{http.MethodGet, "/healthz", "/v1/healthz"},
		{http.MethodGet, "/traces", "/v1/traces"},
		{http.MethodGet, "/traces/abc", "/v1/traces/abc"},
		{http.MethodGet, "/v1/nope", ""},
		{http.MethodGet, "/v1", ""},
		{http.MethodGet, "/v1/query/extra", ""},
		{http.MethodGet, "/", ""},
		{http.MethodDelete, "/nope", ""},
	} {
		status, ct, raw := fetch(tc.method, tc.path)
		if status != http.StatusNotFound || ct != "application/json" {
			t.Errorf("%s %s: status %d content-type %q, want 404 application/json", tc.method, tc.path, status, ct)
			continue
		}
		var body map[string]interface{}
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Errorf("%s %s: non-JSON 404 body %q", tc.method, tc.path, raw)
			continue
		}
		code, msg := envelope(t, body)
		if code != "not_found" {
			t.Errorf("%s %s: envelope code %q, want not_found", tc.method, tc.path, code)
		}
		hint := "docs/API.md" // no twin to name: point at the route list
		if tc.twin != "" {
			hint = "use " + tc.twin
		}
		if !strings.Contains(msg, hint) {
			t.Errorf("%s %s: message %q does not say %q", tc.method, tc.path, msg, hint)
		}
	}

	// The versioned routes answer as they always did.
	for path, want := range map[string]int{
		"/v1/query?measure=rwr&source=3": http.StatusOK,
		"/v1/query?measure=rwr&sorce=3":  http.StatusBadRequest,
		"/v1/snapshots":                  http.StatusOK,
		"/v1/healthz":                    http.StatusOK,
		"/v1/traces":                     http.StatusNotFound, // tracing is off on this server
	} {
		status, ct, raw := fetch(http.MethodGet, path)
		if status != want || ct != "application/json" {
			t.Errorf("GET %s: status %d content-type %q, want %d application/json", path, status, ct, want)
		}
		if strings.Contains(string(raw), "no route") {
			t.Errorf("GET %s fell through to the catch-all: %s", path, raw)
		}
	}
}

// TestKatzEndpoint: katz is not a measure the server answers, so
// measure=katz gets a 400 in the error envelope, by GET and by POST:
// the unknown-measure one, or the damping one when the query also asks
// for a damping the factors were not built for (a katz α), which is
// checked first.
func TestKatzEndpoint(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()
	for _, tc := range []struct {
		name string
		call func() (int, map[string]interface{})
		want string
	}{
		{"GET", func() (int, map[string]interface{}) { return getJSON(t, srv.URL+"/v1/query?measure=katz") }, `unknown measure "katz"`},
		{"POST", func() (int, map[string]interface{}) {
			return post(t, srv.URL+"/v1/query", `{"measure":"katz","damping":0.85}`)
		}, `unknown measure "katz"`},
		{"GET with an α", func() (int, map[string]interface{}) {
			return getJSON(t, srv.URL+"/v1/query?measure=katz&damping=0.1")
		}, "damping 0.1 not served"},
	} {
		code, body := tc.call()
		if code != http.StatusBadRequest {
			t.Errorf("%s katz: status %d, want 400 (%v)", tc.name, code, body)
			continue
		}
		if ecode, msg := envelope(t, body); ecode != "bad_request" || !strings.Contains(msg, tc.want) {
			t.Errorf("%s katz: envelope %q %q, want bad_request saying %q", tc.name, ecode, msg, tc.want)
		}
	}
}

// TestHealthzAndErrors covers the liveness route and the remaining
// envelope codes (not_found on an unknown snapshot).
func TestHealthzAndErrors(t *testing.T) {
	srv, _, done := liveServer(t)
	defer done()

	code, body := getJSON(t, srv.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("/v1/healthz: status %d", code)
	}
	if body["status"] != "ok" || body["mode"] != "streaming" {
		t.Fatalf("healthz body: %v", body)
	}
	if _, ok := body["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz missing uptime_seconds: %v", body)
	}

	code, body = getJSON(t, srv.URL+"/v1/query?measure=rwr&source=1&snapshot=7")
	if code != http.StatusNotFound {
		t.Fatalf("unknown snapshot: status %d, want 404", code)
	}
	if ecode, _ := envelope(t, body); ecode != "not_found" {
		t.Fatalf("unknown snapshot: envelope code %q, want not_found", ecode)
	}
}

// TestSnapshotsHistoryListing drives a history-enabled streaming server
// and checks /v1/snapshots reports each answerable version's state
// ("resident" bases vs "materializable" delta-replay versions) and
// /v1/stats surfaces the history_* block.
func TestSnapshotsHistoryListing(t *testing.T) {
	g := graph.New(8, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
		{From: 4, To: 5}, {From: 5, To: 6}, {From: 6, To: 7}, {From: 7, To: 0},
	})
	eng := serve.New(serve.Config{Damping: 0.85, Workers: 1, HistoryBase: 3})
	defer eng.Close()
	stream, err := core.NewStream(core.StreamConfig{
		Initial:   g,
		Derive:    graph.RWRMatrix(0.85),
		OnPublish: eng.HistoryHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	eng.AttachLive(stream)
	srv := httptest.NewServer(New(Options{Engine: eng, Stream: stream}))
	defer srv.Close()

	// Each edge of the ring goes and comes back: the pattern stays
	// inside the cluster union, so the versions between bases are
	// Bennett deltas.
	for i := 0; i < 7; i++ {
		op := graph.EdgeDelete
		if i%2 == 1 {
			op = graph.EdgeInsert
		}
		if _, err := stream.Apply([]graph.EdgeEvent{{From: i / 2, To: i/2 + 1, Op: op}}); err != nil {
			t.Fatal(err)
		}
	}

	code, body := getJSON(t, srv.URL+"/v1/snapshots")
	if code != http.StatusOK {
		t.Fatalf("/v1/snapshots: status %d", code)
	}
	hv, ok := body["history"].([]interface{})
	if !ok || len(hv) == 0 {
		t.Fatalf("snapshots body missing history listing: %v", body)
	}
	states := map[string]int{}
	for _, item := range hv {
		m := item.(map[string]interface{})
		state, _ := m["state"].(string)
		if state != "resident" && state != "materializable" {
			t.Fatalf("version %v: unexpected state %q", m["version"], state)
		}
		states[state]++
	}
	if states["resident"] == 0 || states["materializable"] == 0 {
		t.Fatalf("listing should mix resident and materializable: %v", states)
	}

	code, body = getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", code)
	}
	stats, _ := body["stats"].(map[string]interface{})
	if stats["history_base"] != float64(3) {
		t.Fatalf("stats history_base = %v, want 3", stats["history_base"])
	}
	if _, ok := stats["history_versions"]; !ok {
		t.Fatalf("stats missing history_versions: %v", stats)
	}
}
