package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 1µs lands in bucket [512ns, 1024ns) → upper bound 1024ns.
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Second) // one outlier
	s := h.Snapshot()
	if s.Total != 100 {
		t.Fatalf("total = %d, want 100", s.Total)
	}
	if got := s.Quantile(0.50); got != 1024e-9 {
		t.Errorf("p50 = %v, want 1024ns", got)
	}
	if p99 := s.Quantile(0.99); p99 != 1024e-9 {
		t.Errorf("p99 = %v, want 1024ns (99 of 100 obs)", p99)
	}
	if p100 := s.Quantile(1); p100 < 1.0 || p100 >= 2.0 {
		t.Errorf("p100 = %v, want within [1s, 2s)", p100)
	}
	wantSum := 99*float64(time.Microsecond.Nanoseconds()) + 1e9
	if got := float64(s.SumNS); got != wantSum {
		t.Errorf("sum = %v ns, want %v", got, wantSum)
	}
	h.Observe(-time.Second) // dropped
	if h.Snapshot().Total != 100 {
		t.Error("negative observation was not dropped")
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Total != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("zero histogram: total %d quantile %v", s.Total, s.Quantile(0.5))
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.", nil)
	c.Add(3)
	g := r.Gauge("test_depth", "Queue depth.", Labels{"queue": "main"})
	g.Set(7)
	r.GaugeFunc("test_func", "Func-backed.", nil, func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", Labels{"stage": "solve"})
	h.Observe(time.Microsecond)
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_events_total Events seen.\n# TYPE test_events_total counter\ntest_events_total 3\n",
		"# TYPE test_depth gauge\ntest_depth{queue=\"main\"} 7\n",
		"test_func 1.5\n",
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{stage="solve",le="+Inf"} 3`,
		`test_latency_seconds_count{stage="solve"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Families must come out name-sorted, series label-sorted, and
	// histogram buckets cumulative and monotone in le.
	assertParses(t, out)
}

// assertParses is a strict structural check of the exposition text:
// every line is a comment or `name[{labels}] value`, TYPE precedes its
// samples, and histogram buckets are cumulative with increasing le.
func assertParses(t *testing.T, out string) {
	t.Helper()
	var lastLe float64
	var lastCum float64
	var curHist string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		id, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" && val != "NaN" {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		name := id
		labels := ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			name, labels = id[:i], id[i:]
			if !strings.HasSuffix(labels, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
		}
		if strings.HasSuffix(name, "_bucket") {
			le := extractLe(t, labels, line)
			base := strings.TrimSuffix(name, "_bucket") + labels
			if base != curHist {
				curHist, lastLe, lastCum = base, math.Inf(-1), 0
			}
			if le <= lastLe {
				t.Fatalf("non-increasing le %v after %v in %q", le, lastLe, line)
			}
			v, _ := strconv.ParseFloat(val, 64)
			if v < lastCum {
				t.Fatalf("non-cumulative bucket counts in %q", line)
			}
			lastLe, lastCum = le, v
		}
	}
}

func extractLe(t *testing.T, labels, line string) float64 {
	t.Helper()
	i := strings.Index(labels, `le="`)
	if i < 0 {
		t.Fatalf("bucket line without le: %q", line)
	}
	rest := labels[i+4:]
	j := strings.IndexByte(rest, '"')
	if rest[:j] == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil {
		t.Fatalf("bad le in %q: %v", line, err)
	}
	return v
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.Counter("9bad", "", nil) }},
		{"invalid label", func(r *Registry) { r.Counter("ok", "", Labels{"9bad": "x"}) }},
		{"duplicate series", func(r *Registry) {
			r.Counter("dup", "", nil)
			r.Counter("dup", "", nil)
		}},
		{"type clash", func(r *Registry) {
			r.Counter("clash", "", nil)
			r.Gauge("clash", "", Labels{"a": "b"})
		}},
		{"reserved le", func(r *Registry) { r.Histogram("h", "", Labels{"le": "1"}) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "", Labels{"path": "a\"b\\c\nd"})
	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{path="a\"b\\c\nd"} 0`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping: got %q, want contains %q", b.String(), want)
	}
}

func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "", nil)
	h := r.Histogram("conc_seconds", "", nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(time.Microsecond)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.Expose(&b); err != nil {
			t.Fatal(err)
		}
		assertParses(t, b.String())
	}
	close(stop)
	wg.Wait()
	if c.Value() != h.Snapshot().Total {
		t.Fatalf("counter %d != histogram total %d", c.Value(), h.Snapshot().Total)
	}
}
