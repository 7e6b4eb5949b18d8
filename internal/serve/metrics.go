package serve

import (
	"sync/atomic"

	"repro/internal/lu"
	"repro/internal/metrics"
)

// RetiredSeries names the counters of deleted solve routes — the
// panel route (serve.panel_share), the reach route (serve.sparse_share,
// serve.sparse_fallback_ratio) and the block route (serve.rhs_per_block)
// — which RegisterMetrics still exposes, as constant 0, for the
// benchmark metrics in parentheses that read them.
var RetiredSeries = []string{
	"clude_panel_rhs_total",
	"clude_sparse_solves_total",
	"clude_sparse_fallbacks_total",
	"clude_block_solves_total",
	"clude_blocked_rhs_total",
}

// RegisterMetrics re-registers the engine's counters, gauges and
// histograms into r under the clude_ namespace. The registered series
// read the *same* atomics Stats reads — the exposition and /stats are
// two views of one state and can never disagree. In particular the
// admission invariant becomes a scrape-checkable metric relation:
//
//	clude_queries_admitted_total + clude_queries_coalesced_total
//	  + clude_queries_shed_total == clude_queries_total
//
// Call once per engine per registry, at wiring time.
func (e *Engine) RegisterMetrics(r *metrics.Registry) {
	cf := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(v.Load()) })
	}
	cf("clude_queries_total", "Queries submitted to the serving engine.", &e.queries)
	cf("clude_queries_admitted_total", "Queries that entered the serving path (cache hits, enqueued solves, and validation rejects).", &e.admitted)
	cf("clude_queries_coalesced_total", "Queries that joined an identical in-flight query instead of computing their own answer.", &e.coalesced)
	cf("clude_queries_shed_total", "Queries fast-failed with ErrOverloaded at the full admission queue.", &e.shed)
	cf("clude_queries_rejected_total", "Queries that returned an error (validation, cancellation, shedding).", &e.rejected)
	cf("clude_cache_hits_total", "Result-cache hits over answered queries.", &e.hits)
	cf("clude_cache_misses_total", "Result-cache misses (one per completed flight).", &e.misses)
	cf("clude_cache_evictions_total", "Result-cache LRU evictions.", &e.cacheEvicted)
	cf("clude_solves_total", "Cold solves (cache fills), all paths.", &e.solves)
	for _, name := range RetiredSeries {
		r.CounterFunc(name, "Always 0: the solve route it counted is gone. Kept because the committed benchmark reads it and fails a run whose series disappears; a change to the benchmark retires it.", nil,
			func() float64 { return 0 })
	}
	cf("clude_snapshots_pinned_total", "Snapshot pins into the bounded store.", &e.pinCount)
	cf("clude_snapshots_evicted_total", "Snapshot evictions from the bounded store.", &e.snapEvicted)
	cf("clude_spill_writes_total", "Evicted snapshots spilled to disk.", &e.spillWrites)
	cf("clude_spill_reloads_total", "Spilled snapshots transparently reloaded on access.", &e.spillLoads)
	cf("clude_spill_errors_total", "Spill-path failures (each degraded to the no-spill behavior).", &e.spillErrors)
	cf("clude_live_queries_total", "Queries answered from the attached live source's hot factors.", &e.liveQueries)
	cf("clude_history_requests_total", "Queries routed through the delta-compressed history layer.", &e.hist.requests)
	cf("clude_history_materializations_total", "Versions materialized by delta replay (clude_history_requests_total / clude_history_materializations_total is the sharing factor).", &e.hist.materializations)
	cf("clude_history_hits_total", "History queries served by an already-materialized (LRU-resident) solver.", &e.hist.hits)
	cf("clude_history_evictions_total", "Materialized solvers evicted past the history byte budget.", &e.hist.evictions)
	cf("clude_history_base_pins_total", "Full factor clones pinned at delta-chain bases (every HistoryBase-th plus every structural version).", &e.hist.basePins)

	r.GaugeFunc("clude_cache_entries", "Result-cache entries currently held.", nil,
		func() float64 { return float64(e.cache.len()) })
	r.GaugeFunc("clude_snapshots_retained", "Snapshots currently pinned in the store.", nil,
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.pinned))
		})
	r.GaugeFunc("clude_workers", "Query worker pool size.", nil,
		func() float64 { return float64(e.cfg.Workers) })
	r.GaugeFunc("clude_live_attached", "1 when a live factor source is attached and publishing.", nil,
		func() float64 {
			if src := e.liveSource(); src != nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("clude_live_version", "Latest published version of the attached live source.", nil,
		func() float64 {
			var v uint64
			if src := e.liveSource(); src != nil {
				src.View(func(version uint64, _ *lu.Solver) { v = version })
			}
			return float64(v)
		})
	r.GaugeFunc("clude_history_resident_bytes", "Bytes retained by materialized (non-base) history solvers — the values each owns, plus once per base the index structure its versions share — against the HistoryBudgetBytes bound.", nil,
		func() float64 {
			e.hist.mu.Lock()
			defer e.hist.mu.Unlock()
			return float64(e.hist.bytes)
		})
	r.GaugeFunc("clude_history_residents", "Materialized history solvers currently LRU-resident.", nil,
		func() float64 {
			e.hist.mu.Lock()
			defer e.hist.mu.Unlock()
			return float64(len(e.hist.residents))
		})
	r.GaugeFunc("clude_history_log_bytes", "Bytes retained by the in-memory delta-record log.", nil,
		func() float64 { return float64(e.hist.log.Bytes()) })
	r.GaugeFunc("clude_history_versions", "Versions covered by the delta-record log window.", nil,
		func() float64 { return float64(e.hist.log.Len()) })
	r.GaugeFunc("clude_history_dedup_ratio", "History requests per materialization (replay sharing factor; 0 until the first replay).", nil,
		func() float64 {
			if m := e.hist.materializations.Load(); m > 0 {
				return float64(e.hist.requests.Load()) / float64(m)
			}
			return 0
		})

	r.RegisterHistogram("clude_query_latency_seconds",
		"End-to-end latency of successfully answered queries (entry to answer).", nil, &e.lat)
	// Replay depth is a count, not a duration: it is recorded as one
	// second per replayed version, so the histogram's le bounds read as
	// (power-of-two) depths. See docs/API.md.
	r.RegisterHistogram("clude_history_replay_depth",
		"Delta-replay depth per materialization, in versions (recorded as seconds, 1 s = 1 version).", nil, &e.hist.replayDepth)
	for i := range e.stages {
		r.RegisterHistogram("clude_query_stage_seconds",
			"Per-stage durations of the query pipeline: resolve, coalesce, admit, batch, solve.",
			metrics.Labels{"stage": stageNames[i]}, &e.stages[i])
	}
}
