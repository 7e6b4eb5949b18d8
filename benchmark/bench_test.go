package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestSchedulesDeterministic pins the contract's first rule: the same
// seed gives byte-identical request and event schedules, another seed
// different ones.
func TestSchedulesDeterministic(t *testing.T) {
	snaps := []int{246, 247, 248, 249}
	draw := func(seed int64) string {
		rng := rngFor(seed)
		var b strings.Builder
		fmt.Fprint(&b, genQueries(rng, queryWide, 2000, snaps, 200))
		fmt.Fprint(&b, genQueries(rng, queryHot, 2000, snaps, 200))
		fmt.Fprint(&b, poissonDue(rng, 200, 300))
		pool, traffic := genEvents(rng, 2000, ingestMixed, 64)
		fmt.Fprint(&b, pool, traffic)
		fmt.Fprint(&b, genReads(rng, 2000, ingestMixed, 200))
		return b.String()
	}
	if draw(7) != draw(7) {
		t.Fatal("same seed gave different schedules")
	}
	if draw(7) == draw(8) {
		t.Fatal("different seeds gave the same schedules")
	}
}

func TestQueryMixes(t *testing.T) {
	snaps := make([]int, 64)
	for i := range snaps {
		snaps[i] = 186 + i
	}
	hot := map[string]bool{}
	for _, q := range genQueries(rngFor(1), queryHot, 2000, snaps, 20000) {
		if q.class == classPPR || q.snapshot < 246 {
			t.Fatalf("query_hot drew %+v", q)
		}
		hot[q.path()] = true
	}
	if len(hot) > hotSources*hotSnapshots*2 {
		t.Fatalf("query_hot has %d keys, more than the %d that fit the cache", len(hot), hotSources*hotSnapshots*2)
	}
	wide := map[string]bool{}
	classes := map[int]int{}
	for _, q := range genQueries(rngFor(1), queryWide, 2000, snaps, 20000) {
		wide[q.path()] = true
		classes[q.class]++
	}
	if len(wide) < 19000 {
		t.Fatalf("query_wide repeated keys: %d distinct of 20000", len(wide))
	}
	if classes[classTopK] < 11500 || classes[classRWR] < 4500 || classes[classPPR] < 2500 {
		t.Fatalf("query_wide mix %v, want about 60/25/15", classes)
	}
}

// TestEventStream pins the two batch classes apart: toggle batches stay
// inside the pool (and re-insert exactly what the previous one deleted),
// growth batches never touch a pool edge or an edge already inserted.
func TestEventStream(t *testing.T) {
	p := ingestMixed
	seed, traffic := genEvents(rngFor(3), 2000, p, 640)
	pool := map[[2]int]bool{}
	for _, b := range seed {
		for _, e := range b.events {
			if e.Op != "insert" || e.From == e.To || pool[[2]int{e.From, e.To}] {
				t.Fatalf("bad seed event %+v", e)
			}
			pool[[2]int{e.From, e.To}] = true
		}
	}
	if len(pool) != p.poolEdges || len(seed)*p.batchEvents != p.poolEdges {
		t.Fatalf("pool of %d edges in %d batches", len(pool), len(seed))
	}
	grown := map[[2]int]bool{}
	var deleted []event
	growth := 0
	for i, b := range traffic {
		if len(b.events) != p.batchEvents {
			t.Fatalf("batch %d has %d events", i, len(b.events))
		}
		if want := i%p.growthEvery == p.growthEvery-1; want != (b.class == classGrowth) {
			t.Fatalf("batch %d has class %d", i, b.class)
		}
		if b.class == classGrowth {
			growth++
			for _, e := range b.events {
				k := [2]int{e.From, e.To}
				if e.Op != "insert" || e.From == e.To || pool[k] || grown[k] {
					t.Fatalf("growth batch %d repeats or leaves its class: %+v", i, e)
				}
				grown[k] = true
			}
			continue
		}
		for j, e := range b.events {
			if !pool[[2]int{e.From, e.To}] {
				t.Fatalf("toggle batch %d leaves the pool: %+v", i, e)
			}
			if deleted != nil && (e.Op != "insert" || e.From != deleted[j].From || e.To != deleted[j].To) {
				t.Fatalf("toggle batch %d does not re-insert what the previous one deleted: %+v vs %+v", i, e, deleted[j])
			}
			if deleted == nil && e.Op != "delete" {
				t.Fatalf("toggle batch %d: %+v, want a delete", i, e)
			}
		}
		if deleted == nil {
			deleted = b.events
		} else {
			deleted = nil
		}
	}
	if growth != 640/p.growthEvery {
		t.Fatalf("%d growth batches", growth)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

// TestHighestSupported pins the "at least ten samples beyond" rule.
func TestHighestSupported(t *testing.T) {
	for n, want := range map[int]float64{
		19: 0, 20: 0.5, 99: 0.5, 100: 0.9, 199: 0.9, 200: 0.95, 999: 0.95, 1000: 0.99, 9999: 0.99, 10000: 0.999,
	} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestWindowStat: one disturbed sub-window does not move the figure.
func TestWindowStat(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 1
		if i >= 200 && i < 300 {
			xs[i] = 50 // a noisy neighbour for one window
		}
	}
	p95 := func(x []float64) float64 { return percentile(x, 0.95) }
	if got := windowStat(xs, 5, p95); got != 1 {
		t.Errorf("windowed p95 = %v, want 1", got)
	}
	if got := p95(xs); got != 50 {
		t.Errorf("global p95 = %v, want 50 (the test's premise)", got)
	}
	if got := windowStat(xs[:3], 5, p95); got != 1 {
		t.Errorf("fewer samples than windows: %v", got)
	}
}

// TestMarksPerWindow: rates count the marked operations, CPU per
// operation also those another role completed beside them.
func TestMarksPerWindow(t *testing.T) {
	t0 := time.Unix(0, 0)
	m := &marks{
		chunk:  16,
		at:     []time.Time{t0, t0.Add(200 * time.Millisecond), t0.Add(600 * time.Millisecond)},
		cpu:    []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond},
		others: []int64{0, 4, 8},
	}
	rate, cpuMS := m.perWindow()
	if len(rate) != 2 || rate[0] != 80 || rate[1] != 40 {
		t.Errorf("rates = %v, want [80 40]", rate)
	}
	if len(cpuMS) != 2 || cpuMS[0] != 5 || cpuMS[1] != 15 {
		t.Errorf("cpu ms/op = %v, want [5 15]", cpuMS)
	}
}

// TestSpread checks the quartile rule against values computed with
// Python's statistics.quantiles(xs, n=4).
func TestSpread(t *testing.T) {
	one := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := spread(one); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	two := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3} // quartiles 1.75, 3.5, 5.25
	if got := spread(two); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	flat := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10, 10.02, 9.98} // 9.9725, 10, 10.0275
	if got := spread(flat); math.Abs(got-0.0055) > 1e-9 {
		t.Errorf("spread = %v, want 0.0055", got)
	}
}

func TestParseProm(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProm(body)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"clude_queries_total":                               4,
		`clude_query_stage_seconds_sum{stage="solve"}`:      0.000277789,
		`clude_query_stage_seconds_count{stage="solve"}`:    4,
		`clude_build_info{go="go1.24.0",version="dev"}`:     1,
		`clude_ingest_stage_seconds_sum{stage="apply"}`:     0.001552885,
		`clude_traces_retained_reason_total{reason="slow"}`: 0,
		"clude_go_heap_bytes":                               1394592,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for series := range s {
		if strings.Contains(series, "_bucket") {
			t.Fatalf("bucket series kept: %s", series)
		}
	}

	w := &window{from: scrape{}, to: s}
	if ms, n := w.histMean("clude_query_stage_seconds", `{stage="solve"}`); n != 4 || math.Abs(ms-0.06944725) > 1e-9 {
		t.Errorf("histMean = %v ms over %v", ms, n)
	}
	if err := w.err(); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	w.delta("clude_renamed_total")
	w.gauge(`clude_query_stage_seconds_sum{stage="encode"}`)
	err = w.err()
	if err == nil || !strings.Contains(err.Error(), "clude_renamed_total") || !strings.Contains(err.Error(), `stage="encode"`) {
		t.Fatalf("a missing series must be an error naming it, got %v", err)
	}
	if _, err := parseProm([]byte("clude_x notanumber\n")); err == nil {
		t.Error("a malformed sample must not parse")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of root
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]int64{"root": 50, "a": 20, "b": 20, "c": 30, "b.inner": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestBudgetReconciles(t *testing.T) {
	b := newBudget("x", 10, []budgetRow{{"a", "", 4}, {"b", "", 5.5}})
	sum := b.Residual
	for _, r := range b.Rows {
		sum += r.MS
	}
	if sum != b.TotalMS || b.Residual != 0.5 {
		t.Fatalf("rows+residual = %v of %v, residual %v", sum, b.TotalMS, b.Residual)
	}
	b.fprint(io.Discard)
}

func TestAnswerChecks(t *testing.T) {
	good := &answer{Measure: "rwr", Damping: 0.85, Scores: []float64{0.2, 0.3, 0, 0.1}}
	if err := checkVector(good, 4, []int{1}); err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*answer{
		"short":     {Damping: 0.85, Scores: []float64{0.2, 0.3}},
		"negative":  {Damping: 0.85, Scores: []float64{0.2, 0.3, -1e-6, 0.1}},
		"nan":       {Damping: 0.85, Scores: []float64{0.2, 0.3, math.NaN(), 0.1}},
		"overfull":  {Damping: 0.85, Scores: []float64{0.5, 0.5, 0.1, 0.1}},
		"empty":     {Damping: 0.85, Scores: []float64{0, 0, 0, 0}},
		"weak seed": {Damping: 0.85, Scores: []float64{0.2, 0.1, 0, 0.1}},
	} {
		if err := checkVector(a, 4, []int{1}); err == nil {
			t.Errorf("%s vector passed", name)
		}
	}

	scores := []float64{0.1, 0.4, 0.4, 0.05, 0.4}
	if got := fmt.Sprint(topKOf(scores, 3)); got != "[1 2 4]" {
		t.Errorf("ties must break by ascending id: %s", got)
	}
	top := &answer{Nodes: []int{1, 2, 4}, Scores: []float64{0.4, 0.4, 0.4}}
	if err := checkTopK(top, 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkTopKAgainst(top, &answer{Scores: scores}); err != nil {
		t.Fatal(err)
	}
	if err := checkTopKAgainst(&answer{Nodes: []int{2, 1, 4}, Scores: []float64{0.4, 0.4, 0.4}}, &answer{Scores: scores}); err == nil {
		t.Error("a topk with the wrong tie order passed")
	}
	if err := checkTopK(&answer{Nodes: []int{1, 1, 4}, Scores: []float64{0.4, 0.4, 0.4}}, 5, 3); err == nil {
		t.Error("a topk with a repeated node passed")
	}

	a := []byte("{\n  \"scores\": [1],\n  \"cache_hit\": true\n}")
	b := []byte("{\n  \"scores\": [1],\n  \"cache_hit\": false\n}")
	c := []byte("{\n  \"scores\": [2],\n  \"cache_hit\": false\n}")
	if !sameAnswerBytes(a, b) || sameAnswerBytes(a, c) {
		t.Error("sameAnswerBytes must ignore cache_hit and nothing else")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 {
		return []float64{m * 0.99, m, m * 1.01, m, m * 1.005, m * 0.995, m, m, m, m}
	}
	noisy := func(m float64) []float64 {
		return []float64{m * 0.7, m, m * 1.3, m, m * 1.2, m * 0.8, m, m * 0.75, m * 1.25, m}
	}
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(11.5), "worse"},
		{lower, steady(10), steady(8), "ok"}, // better is never worse
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(130), "ok"},
		{lower, steady(10), noisy(10.2), "unresolved"},
		{lower, steady(10), nil, "missing"},
	} {
		if _, got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.spec.Name, median(c.a), median(c.b), got, c.want)
		}
	}
}

// TestManifest holds BENCHMARK.json to the limits of the contract it is
// written to.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(spec.Workloads), spec.RunSeconds)
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: no driver, or a why that is not one line of at most 200 characters", w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d drivers for %d named workloads", len(workloads), len(spec.Workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", n, len(spec.PerLayer))
	}
	largest, setup := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better: %+v", m)
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s must exist and carry the largest bound (has %v, largest %v)", setup, largest)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// TestQuickSmoke runs every workload through the real binaries at -scale
// tiny, untraced and traced. It asserts no timing: only that every
// metric BENCHMARK.json names appears with a finite value, that every
// end-to-end value is non-zero, that every per-layer metric is measured
// by at least one workload, and that no check failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cludeserve")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	measured := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			o, err := runOne(h, spec, w.Name, 5, spec.RunSeconds, traced, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, o.Failed, o.Attempted, o.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%v reports %d metrics, want %d", w.Name, traced, len(o.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := o.Metrics[m.Name]
				if !ok || !finite(v.Value) || v.Unit != m.Unit || (!traced && v.Value == 0) {
					t.Errorf("%s traced=%v: %s = %+v (present %v)", w.Name, traced, m.Name, v, ok)
				}
			}
			for name := range o.measuredLayers {
				measured[name] = true
			}
			for _, b := range o.Budgets {
				if len(b.Rows) == 0 || !finite(b.Residual) {
					t.Errorf("%s: budget %q is empty", w.Name, b.Title)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is named in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
}
