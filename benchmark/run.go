package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// nominalSeconds is the run length the frozen counts in the workload
// parameters are sized for; -seconds scales them linearly.
const nominalSeconds = 16

// connections is how many keep-alive connections, each with its own
// client goroutine, one load-generating role opens: as many as the
// benchmark leaves itself processors (see confineToOneCPU). A query
// workload has one role; ingest_mixed has a writer and a reader.
const connections = 1

// quickScale shrinks every count for the -quick smoke, whose servers run
// at -scale tiny.
const quickScale = 1.0 / 40

// run is the state of one workload run: its inputs, and what it found.
type run struct {
	h      *harness
	seed   int64
	scale  float64 // -seconds / nominalSeconds; quickScale under -quick
	traced bool
	quick  bool
	conns  int       // connections (and client goroutines) per load-generating role
	rec    *recorder // nil on untraced runs
	out    io.Writer

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string // the first few, for the report
	end      map[string]float64
	layer    map[string]float64
	budgets  []budget
}

// serverScale is cludeserve's -scale: the Wiki-like n=2000, T=250
// dataset, or the 150-node one for the smoke.
func (r *run) serverScale() string {
	if r.quick {
		return "tiny"
	}
	return "medium"
}

// scaled is a frozen operation count adjusted to the requested run
// length, never below one.
func (r *run) scaled(n int) int { return max(int(float64(n)*r.scale+0.5), 1) }

// attempt counts one operation whose outcome the run will check.
func (r *run) attempt() { r.attempted.Add(1) }

// fail counts a failed operation: a transport error, a non-200 status
// and a failed answer check all land here.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) setEnd(name string, v float64)   { r.mu.Lock(); r.end[name] = v; r.mu.Unlock() }
func (r *run) setLayer(name string, v float64) { r.mu.Lock(); r.layer[name] = v; r.mu.Unlock() }

func (r *run) say(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// serveLayer derives the serve.* figures from a window of /v1/metrics.
func (r *run) serveLayer(w *window) {
	_, answered := w.histMean("clude_query_latency_seconds", "")
	for _, stage := range queryStages {
		sum := w.delta(`clude_query_stage_seconds_sum{stage="` + stage + `"}`)
		r.setLayer("serve."+stage+"_ms", ratio(sum, answered)*1e3)
	}
	queries := w.delta("clude_queries_total")
	hits, misses := w.delta("clude_cache_hits_total"), w.delta("clude_cache_misses_total")
	solves := w.delta("clude_solves_total")
	sparse, fallbacks := w.delta("clude_sparse_solves_total"), w.delta("clude_sparse_fallbacks_total")
	r.setLayer("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.setLayer("serve.coalesced_ratio", ratio(w.delta("clude_queries_coalesced_total"), queries))
	r.setLayer("serve.shed_ratio", ratio(w.delta("clude_queries_shed_total"), queries))
	r.setLayer("serve.cold_solves", solves)
	r.setLayer("serve.rhs_per_block", ratio(w.delta("clude_blocked_rhs_total"), w.delta("clude_block_solves_total")))
	r.setLayer("serve.panel_share", ratio(w.delta("clude_panel_rhs_total"), solves))
	r.setLayer("serve.sparse_share", ratio(sparse, solves))
	r.setLayer("serve.sparse_fallback_ratio", ratio(fallbacks, sparse+fallbacks))
	r.setLayer("serve.live_queries", w.delta("clude_live_queries_total"))
	hreq := w.delta("clude_history_requests_total")
	r.setLayer("serve.history_requests", hreq)
	r.setLayer("serve.history_hit_ratio", ratio(w.delta("clude_history_hits_total"), hreq))
	r.setLayer("serve.history_materializations", w.delta("clude_history_materializations_total"))
	// The depth histogram records one "second" per replayed version.
	depth, _ := w.histMean("clude_history_replay_depth", "")
	r.setLayer("serve.history_replay_depth_mean", depth/1e3)
	r.setLayer("serve.history_resident_mb", w.gauge("clude_history_resident_bytes")/(1<<20))
	r.setLayer("serve.history_log_kb", w.gauge("clude_history_log_bytes")/(1<<10))
	r.setLayer("serve.history_base_pins", w.delta("clude_history_base_pins_total"))
}

// coreLayer derives the streaming core.* figures: server-side stage
// means per batch, the maintenance counters, and the client-side sync-ack
// medians split by batch class.
func (r *run) coreLayer(w *window, updates []sample) {
	for _, stage := range ingestStages {
		m, _ := w.histMean("clude_ingest_stage_seconds", `{stage="`+stage+`"}`)
		r.setLayer("core."+stage+"_ms", m)
	}
	r.setLayer("core.struct_rebuilds", w.delta("clude_stream_struct_rebuilds_total"))
	r.setLayer("core.refactorizations", w.delta("clude_stream_refactorizations_total"))
	r.setLayer("core.clusters", w.delta("clude_stream_clusters_total"))
	r.setLayer("core.events_applied_ratio",
		ratio(w.delta("clude_stream_events_applied_total"), w.delta("clude_stream_events_total")))
	r.setLayer("core.update_toggle_p50_ms", summarize(updates, 1, classToggle).p50)
	r.setLayer("core.update_growth_p50_ms", summarize(updates, 1, classGrowth).p50)
}

// storeLayer derives the store.* figures that come from /v1/metrics.
func (r *run) storeLayer(w *window) {
	for _, stage := range []string{"wal_append", "snapshot", "compaction"} {
		m, _ := w.histMean("clude_store_stage_seconds", `{stage="`+stage+`"}`)
		r.setLayer("store."+stage+"_ms", m)
	}
	batches := w.delta("clude_stream_batches_total")
	r.setLayer("store.wal_bytes_per_event", ratio(w.delta("clude_wal_bytes_total"), w.delta("clude_stream_events_total")))
	r.setLayer("store.fsyncs_per_batch", ratio(w.delta("clude_wal_fsyncs_total"), batches))
	r.setLayer("store.snapshots_written", w.delta("clude_store_snapshots_written_total"))
}

// runtimeLayer reports the server's Go runtime over the window, and how
// many client spans the run kept.
func (r *run) runtimeLayer(w *window) {
	r.setLayer("runtime.gc_pause_ms", w.delta("clude_go_gc_pause_seconds_sum")*1e3)
	r.setLayer("runtime.heap_mb", w.gauge("clude_go_heap_bytes")/(1<<20))
	r.setLayer("trace.retained", float64(r.rec.len()))
}

// loadgenLayer reports how well the generator itself ran. updates is nil
// on workloads without a writer.
func (r *run) loadgenLayer(queries latencyStats, updates *latencyStats) {
	sent, late, samples := queries.n, queries.latenessP95, queries.n-queries.failed
	wait := queries.connWaitMean * float64(samples)
	r.setLayer("loadgen.query_p99_ms", queries.tail)
	if updates != nil {
		sent += updates.n
		samples += updates.n - updates.failed
		late = max(late, updates.latenessP95)
		wait += updates.connWaitMean * float64(updates.n-updates.failed)
		r.setLayer("loadgen.update_p99_ms", updates.tail)
	}
	r.setLayer("loadgen.sent", float64(sent))
	r.setLayer("loadgen.samples", float64(samples))
	r.setLayer("loadgen.lateness_p95_ms", late)
	if late > 2 {
		r.say("    note: the generator woke %.2f ms late at p95 (> 2 ms): the box was busier than the schedule assumes; read the latencies of this run with that in mind", late)
	}
	r.setLayer("loadgen.conn_wait_ms", ratio(wait, float64(samples)))
}

// traceEvery is how many consecutive closed-loop operations share one
// tracing state on a traced run before it flips.
const traceEvery = 64

// traceOverhead compares the stretches of a closed-loop phase that
// recorded spans (odd) with the interleaved ones that did not (even),
// given each stretch's operations per second: the share of throughput
// the tracing costs.
func (r *run) traceOverhead(rate []float64) {
	var on, off []float64
	for k, v := range rate {
		if k%2 == 1 {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return
	}
	r.setLayer("trace.overhead_frac", 1-ratio(median(on), median(off)))
}

// report prints what the run measured.
func (r *run) report(spec *manifest) {
	for _, m := range spec.EndToEnd {
		if v, ok := r.end[m.Name]; ok {
			r.say("    %-28s %14.6g %-8s (%s is better, bound %.2f)", m.Name, v, m.Unit, m.Better, m.Bound)
		}
	}
	if len(r.layer) > 0 {
		r.say("    per layer:")
		names := make([]string, 0, len(r.layer))
		for name := range r.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.say("      %-36s %14.6g %s", name, r.layer[name], spec.unit(name))
		}
	}
	for _, b := range r.budgets {
		b.fprint(r.out)
	}
	for _, f := range r.failures {
		r.say("    FAILED: %s", f)
	}
}
