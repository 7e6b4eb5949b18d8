package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for
// a root). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	busy  time.Duration // time spent inside add, the recorder's own cost
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a span and returns its ID for use as a child's Parent.
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	t0 := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.busy += time.Since(t0)
	r.mu.Unlock()
	return id
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval that
// its child spans cover (children may overlap each other and may stick
// out of the parent; only covered time inside the parent counts).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// budgetRow is one layer's share of an end-to-end mean.
type budgetRow struct {
	Layer string  `json:"layer"`
	What  string  `json:"what"`
	MS    float64 `json:"ms"`
}

// budget is the per-layer table of one operation class: rows that sum,
// with the residual row, to the client-observed mean.
type budget struct {
	Title    string      `json:"title"`
	TotalMS  float64     `json:"total_ms"`
	Rows     []budgetRow `json:"rows"`
	Residual float64     `json:"residual_ms"`
}

// newBudget closes rows against the end-to-end mean total: whatever the
// rows do not explain becomes the residual.
func newBudget(title string, total float64, rows []budgetRow) budget {
	b := budget{Title: title, TotalMS: total, Rows: rows, Residual: total}
	for _, r := range rows {
		b.Residual -= r.MS
	}
	return b
}

func (b budget) fprint(w io.Writer) {
	fmt.Fprintf(w, "\n  budget: %s — end-to-end mean %.4f ms\n", b.Title, b.TotalMS)
	fmt.Fprintf(w, "    %-10s %-44s %10s %7s\n", "layer", "what", "ms", "share")
	for _, r := range append(b.Rows, budgetRow{"-", "residual (unexplained)", b.Residual}) {
		fmt.Fprintf(w, "    %-10s %-44s %10.4f %6.1f%%\n", r.Layer, r.What, r.MS, 100*ratio(r.MS, b.TotalMS))
	}
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Budgets  []budget         `json:"budgets"`
	SelfNS   map[string]int64 `json:"self_ns_by_span"`
	Spans    []span           `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
