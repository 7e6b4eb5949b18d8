package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the HTTP Content-Type of the exposition format
// Expose emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Labels attaches constant label pairs to one registered series.
// Within a family (one metric name), every series must carry a
// distinct label set.
type Labels map[string]string

// A Registry collects metric series and renders them in the
// Prometheus text format. Registration is done once at wiring time
// and panics on misuse (invalid names, duplicate series, one name
// registered as two types) — those are programming errors, not
// runtime conditions. Collection (WriteTo) is safe to call
// concurrently with observations.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name, help, typ string
	series          []*series
}

type series struct {
	labels string // rendered `{k="v",…}` or ""

	counter *Counter
	gauge   *Gauge
	fn      func() float64           // counterfunc / gaugefunc
	hist    *Histogram               // registered histogram
	histFn  func() HistogramSnapshot // func-backed histogram
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, &series{counter: c})
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, &series{gauge: g})
	return g
}

// CounterFunc registers a counter series collected from fn at scrape
// time. fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "counter", labels, &series{fn: fn})
}

// GaugeFunc registers a gauge series collected from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, &series{fn: fn})
}

// Histogram registers and returns a new histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, labels, h)
	return h
}

// RegisterHistogram registers an existing histogram — the hook that
// lets a subsystem keep one set of buckets backing both its own stats
// and the exposition.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.register(name, help, "histogram", labels, &series{hist: h})
}

// HistogramFunc registers a histogram series collected from fn at
// scrape time.
func (r *Registry) HistogramFunc(name, help string, labels Labels, fn func() HistogramSnapshot) {
	r.register(name, help, "histogram", labels, &series{histFn: fn})
}

func (r *Registry) register(name, help, typ string, labels Labels, s *series) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if typ == "histogram" {
		for _, k := range []string{"le"} {
			if _, ok := labels[k]; ok {
				panic(fmt.Sprintf("metrics: label %q is reserved on histograms", k))
			}
		}
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	} else {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
		}
		if f.help != help {
			panic(fmt.Sprintf("metrics: %s registered with two help strings", name))
		}
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Expose renders every registered family in the text exposition
// format: families sorted by name, series within a family sorted by
// label signature, histograms as cumulative `_bucket`/`_sum`/`_count`
// with `le` bounds in seconds.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		ss := append([]*series(nil), f.series...)
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			writeSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		writeSample(b, f.name, s.labels, float64(s.counter.Value()))
	case s.gauge != nil:
		writeSample(b, f.name, s.labels, s.gauge.Value())
	case s.fn != nil:
		writeSample(b, f.name, s.labels, s.fn())
	case s.hist != nil:
		writeHistogram(b, f.name, s.labels, s.hist.Snapshot())
	case s.histFn != nil:
		writeHistogram(b, f.name, s.labels, s.histFn())
	}
}

// writeHistogram emits the cumulative bucket series. Only buckets that
// hold observations get a line (plus the mandatory +Inf), which keeps
// the exposition compact while staying valid: the `le` bounds present
// are strictly increasing and the counts cumulative.
func writeHistogram(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		writeSample(b, name+"_bucket", addLabel(labels, "le", formatFloat(bucketUpperSeconds(i))), float64(cum))
	}
	writeSample(b, name+"_bucket", addLabel(labels, "le", "+Inf"), float64(s.Total))
	writeSample(b, name+"_sum", labels, float64(s.SumNS)/1e9)
	writeSample(b, name+"_count", labels, float64(s.Total))
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// addLabel splices one more pair into a rendered label string.
func addLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// renderLabels renders a label set in sorted-key order.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validLabel(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validName reports whether s is a legal metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s is a legal label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
