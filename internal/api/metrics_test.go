package api

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/xrand"
)

// scrape fetches /v1/metrics, structurally validates the exposition
// text (every line is a comment or `name[{labels}] value`), and returns
// the series values keyed by their full spelling.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/v1/metrics content-type %q, want %q", ct, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		// `name{labels} value` or `name value`; the value is everything
		// after the last space (labels may contain escaped spaces but
		// never a bare one outside quotes — and quoted spaces are fine
		// because we split from the right).
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			t.Fatalf("exposition line %d unparseable: %q", line, l)
		}
		series, val := l[:i], l[i+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("exposition line %d: bad value %q: %v", line, val, err)
		}
		if _, dup := out[series]; dup {
			t.Fatalf("exposition line %d: duplicate series %q", line, series)
		}
		out[series] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("exposition empty")
	}
	return out
}

// TestMetricsInvariantUnderLoad is the scrape-checkable form of the
// serving pipeline's admission invariant: after a burst of concurrent
// mixed queries (identical ones to force coalescing, a 1-deep queue to
// invite shedding) quiesces,
//
//	admitted + coalesced + shed == queries
//
// must hold exactly in the exposition, and /v1/stats must agree with
// /v1/metrics series for series they both report — they read the same
// atomics, so any drift is a bug. Run with -race.
func TestMetricsInvariantUnderLoad(t *testing.T) {
	srv, _, done := liveServerTuned(t, 1, 1)
	defer done()

	rng := xrand.New(17)
	urls := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		switch rng.Intn(4) {
		case 0:
			urls = append(urls, fmt.Sprintf("/v1/query?measure=rwr&source=%d", rng.Intn(6)))
		case 1:
			urls = append(urls, fmt.Sprintf("/v1/query?measure=topk&source=%d&k=%d", rng.Intn(6), 1+rng.Intn(5)))
		case 2:
			urls = append(urls, "/v1/query?measure=pagerank")
		case 3:
			urls = append(urls, "/v1/query?measure=katz")
		}
	}
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + u)
			if err != nil {
				t.Error(err)
				return
			}
			// 200, 429 (shed) and 404 are all legal under load; every
			// outcome must keep the counters consistent.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(u)
	}
	wg.Wait()

	m := scrape(t, srv.URL)
	queries := m["clude_queries_total"]
	admitted := m["clude_queries_admitted_total"]
	coalesced := m["clude_queries_coalesced_total"]
	shed := m["clude_queries_shed_total"]
	if queries < 64 {
		t.Fatalf("clude_queries_total = %v, want >= 64", queries)
	}
	if admitted+coalesced+shed != queries {
		t.Fatalf("admission invariant broken in exposition: %v + %v + %v != %v",
			admitted, coalesced, shed, queries)
	}

	// The latency histogram counts exactly the answered queries.
	rejected := m["clude_queries_rejected_total"]
	if got := m["clude_query_latency_seconds_count"]; got != queries-rejected {
		t.Fatalf("latency count %v, want queries-rejected = %v", got, queries-rejected)
	}
	// Every pipeline stage is present; resolve saw every query.
	if got := m[`clude_query_stage_seconds_count{stage="resolve"}`]; got != queries {
		t.Fatalf("resolve stage count %v, want %v", got, queries)
	}
	for _, stage := range []string{"coalesce", "admit", "batch", "solve"} {
		if _, ok := m[fmt.Sprintf("clude_query_stage_seconds_count{stage=%q}", stage)]; !ok {
			t.Fatalf("stage %q missing from exposition", stage)
		}
	}
	// The sum buckets are cumulative and end at +Inf == _count.
	if inf := m[`clude_query_latency_seconds_bucket{le="+Inf"}`]; inf != m["clude_query_latency_seconds_count"] {
		t.Fatalf("+Inf bucket %v != count %v", inf, m["clude_query_latency_seconds_count"])
	}
	// The retired routes' series stay exposed, at 0, for the benchmark
	// that still reads them.
	for _, name := range serve.RetiredSeries {
		if v, ok := m[name]; !ok || v != 0 {
			t.Fatalf("%s = %v (present %v), want a constant 0", name, v, ok)
		}
	}
	if v, ok := m["clude_single_groups_total"]; ok {
		t.Fatalf("clude_single_groups_total = %v: the series was deleted with the worker's grouping", v)
	}
	// Every cold solve is a dense or a Katz one.
	if dense, katz, cold := m["clude_dense_solves_total"], m["clude_katz_solves_total"], m["clude_solves_total"]; dense+katz != cold {
		t.Fatalf("dense %v + katz %v != cold solves %v", dense, katz, cold)
	}

	// /v1/stats and /v1/metrics views of the same counters agree.
	code, statsBody := getJSON(t, srv.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", code)
	}
	stats := statsBody["stats"].(map[string]interface{})
	for metric, field := range map[string]string{
		"clude_queries_total":           "queries",
		"clude_queries_admitted_total":  "admitted",
		"clude_queries_coalesced_total": "coalesced",
		"clude_queries_shed_total":      "shed",
		"clude_cache_hits_total":        "cache_hits",
		"clude_solves_total":            "cold_solves",
		"clude_katz_solves_total":       "katz_solves",
		"clude_dense_solves_total":      "dense_solves",
	} {
		if m[metric] != stats[field].(float64) {
			t.Errorf("%s = %v disagrees with stats.%s = %v", metric, m[metric], field, stats[field])
		}
	}
}

// liveServerTuned is liveServer with an explicit worker count and queue
// depth (1/1 invites shedding under the burst test).
func liveServerTuned(t *testing.T, workers, queue int) (*httptest.Server, *core.Stream, func()) {
	t.Helper()
	g := graph.New(6, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 5},
	})
	reg := metrics.NewRegistry()
	stream, err := core.NewStream(core.StreamConfig{
		Algorithm: core.INC,
		Initial:   g,
		Derive:    graph.RWRMatrix(0.85),
		OnBatch:   IngestHook(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.New(serve.Config{Damping: 0.85, Workers: workers, QueueDepth: queue})
	eng.AttachLive(stream)
	eng.AttachGraphs(StreamGraphs(stream))
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

// TestIngestAndStoreMetrics drives a durable streaming server through
// updates and checks the ingest-stage histograms, WAL counters and
// recovery gauges in the exposition.
func TestIngestAndStoreMetrics(t *testing.T) {
	g := graph.New(6, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3},
	})
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{
		Sync:    store.SyncNone,
		OnStage: StoreStageHook(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := st.OpenStream(core.StreamConfig{
		Algorithm: core.INC,
		Initial:   g,
		Derive:    graph.RWRMatrix(0.85),
		OnBatch:   IngestHook(reg, nil),
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
		Store:    st,
		Registry: reg,
	}))
	defer func() {
		srv.Close()
		st.Close()
		stream.Close()
		eng.Close()
	}()

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/update?sync=1", "application/json",
			strings.NewReader(fmt.Sprintf(`{"events":[{"from":%d,"to":%d}]}`, i, 5-i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d", i, resp.StatusCode)
		}
	}

	m := scrape(t, srv.URL)
	if m["clude_stream_version"] != 3 {
		t.Fatalf("clude_stream_version = %v, want 3", m["clude_stream_version"])
	}
	if m["clude_stream_batches_total"] != 3 {
		t.Fatalf("clude_stream_batches_total = %v, want 3", m["clude_stream_batches_total"])
	}
	if m["clude_wal_records_total"] != 3 {
		t.Fatalf("clude_wal_records_total = %v, want 3", m["clude_wal_records_total"])
	}
	if m["clude_store_recovered"] != 0 {
		t.Fatalf("clude_store_recovered = %v on a cold start, want 0", m["clude_store_recovered"])
	}
	if m["clude_store_snapshots_written_total"] < 1 {
		t.Fatalf("clude_store_snapshots_written_total = %v, want >= 1 (initial checkpoint)",
			m["clude_store_snapshots_written_total"])
	}
	for _, stage := range []string{"validate", "log", "apply", "publish"} {
		key := fmt.Sprintf("clude_ingest_stage_seconds_count{stage=%q}", stage)
		if m[key] != 3 {
			t.Fatalf("%s = %v, want 3", key, m[key])
		}
	}
	// The apply stage's split is a family of its own — the stage family
	// keeps exactly its four members. Three INC batches are three Bennett
	// updates: delta and update observed, order and factorize registered
	// and empty.
	for part, want := range map[string]float64{"delta": 3, "update": 3, "order": 0, "factorize": 0} {
		key := fmt.Sprintf("clude_ingest_apply_seconds_count{part=%q}", part)
		if got, ok := m[key]; !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	for key := range m {
		if strings.HasPrefix(key, "clude_ingest_stage_seconds_count{") && !strings.Contains(key, `stage="validate"`) &&
			!strings.Contains(key, `stage="log"`) && !strings.Contains(key, `stage="apply"`) && !strings.Contains(key, `stage="publish"`) {
			t.Fatalf("clude_ingest_stage_seconds grew a stage: %s", key)
		}
	}
	if apply, parts := m[`clude_ingest_stage_seconds_sum{stage="apply"}`],
		m[`clude_ingest_apply_seconds_sum{part="delta"}`]+m[`clude_ingest_apply_seconds_sum{part="update"}`]; parts > apply {
		t.Fatalf("apply parts sum to %v s, more than the apply stage's %v s", parts, apply)
	}
	if got := m[`clude_store_stage_seconds_count{stage="wal_append"}`]; got != 3 {
		t.Fatalf("wal_append stage count %v, want 3", got)
	}
	if got := m[`clude_store_stage_seconds_count{stage="snapshot"}`]; got < 1 {
		t.Fatalf("snapshot stage count %v, want >= 1", got)
	}
}
