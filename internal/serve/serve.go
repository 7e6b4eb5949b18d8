// Package serve is the query-serving layer on top of the LUDEM
// pipelines: it retains per-snapshot solvers produced by core.Run
// (clones taken in core.Options.OnFactors) in a bounded
// snapshot store and answers concurrent proximity-measure queries —
// RWR, PPR, PageRank, top-k — through an admission-controlled worker
// pool with a shared LRU result cache.
//
// This is the paper's motivating deployment (§1): the whole point of
// maintaining LU factors across an evolving matrix sequence is that
// every measure query at any snapshot is then a forward/backward
// substitution, cheap enough to serve traffic. The split is the usual
// one between maintenance and serving: core keeps the factors current
// while this package turns them into answers.
//
// The hot path is a three-stage pipeline (see docs/SERVING.md):
//
//	Query ──resolve──▶ coalesce ──admit──▶ solve ──▶ cache
//	        (route,     (single-   (bounded  (one        (one fill
//	         validate)   flight)    queue,    SolveRHS    per
//	                               shedding)  per query)  flight)
//
// Identical concurrent queries share one solve and one cache fill
// (single-flight coalescing, keyed by the generation-tagged cache
// key); every other admitted query is one lu.Solver.SolveRHS call on
// its worker; and when the admission queue is full, excess queries fail
// fast with ErrOverloaded instead of building an unbounded backlog.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lu"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// The measure names a Query may carry.
const (
	MeasureRWR      = "rwr"      // random walk with restart from Source
	MeasurePPR      = "ppr"      // personalized PageRank over Sources
	MeasurePageRank = "pagerank" // global PageRank
	MeasureTopK     = "topk"     // top-K nodes of the RWR from Source
	// MeasureKatz is Katz centrality, the graph-backed measure: it is
	// answered from the snapshot's graph (AttachGraphs) by a dedicated
	// factorization rather than from the pinned RWR factors. The Query's
	// Damping field carries the Katz attenuation α (0 = the conventional
	// 0.85/maxInDegree default).
	MeasureKatz = "katz"
)

// Errors a Query can fail with. Validation problems (bad measure,
// out-of-range source, …) come back as distinct descriptive errors.
var (
	ErrClosed          = errors.New("serve: engine closed")
	ErrUnknownSnapshot = errors.New("serve: snapshot not retained")
	ErrNoSnapshots     = errors.New("serve: no snapshots pinned yet")
	// ErrNoGraphSource reports a graph-backed measure (katz) on an
	// engine with no AttachGraphs source: the deployment cannot answer
	// it, which callers should surface as a client error.
	ErrNoGraphSource = errors.New("serve: no graph source attached (katz not served)")
	// ErrOverloaded is the admission-control fast-fail: the bounded
	// queue is full and the query was shed without waiting. Callers
	// should back off and retry (cludeserve maps it to HTTP 429 with a
	// Retry-After header).
	ErrOverloaded = errors.New("serve: overloaded, query shed")
)

// Config sizes the engine. The zero value picks the defaults.
type Config struct {
	// MaxSnapshots bounds the snapshot store: pinning snapshot K+1
	// evicts the oldest retained snapshot. <= 0 means 64.
	MaxSnapshots int
	// Workers is the query pool size. <= 0 means runtime.GOMAXPROCS.
	Workers int
	// CacheSize bounds the LRU result cache (entries). <= 0 means 1024.
	CacheSize int
	// Damping is the restart parameter baked into the pinned factors
	// (A = I − d·W). Queries may omit it (0) or must match it: the
	// factors cannot answer a different damping.
	Damping float64
	// QueueDepth bounds the admission queue between callers and the
	// worker pool. A query that finds the queue full is shed
	// immediately with ErrOverloaded — the engine never builds a
	// backlog deeper than this. <= 0 means 8×Workers.
	QueueDepth int
	// QueryTimeout, when positive, is a per-request deadline applied
	// to every Query on top of the caller's context.
	QueryTimeout time.Duration
	// SpillDir, when non-empty, turns eviction from the bounded
	// snapshot store into disk spilling: evicted snapshots are written
	// there (see internal/store's solver codec) and transparently
	// reloaded — and re-pinned — when a query addresses them. The
	// directory is indexed at engine construction, so spill files from
	// a previous process stay queryable; past 4096 files the oldest
	// indices are deleted. Empty keeps drop-on-evict.
	SpillDir string
	// HistoryBase, when > 0, enables delta-compressed version history
	// (see history.go): the HistoryHook pins a full factor clone only
	// every HistoryBase-th version (plus every structural version, which
	// starts a new delta chain) and records every version's Bennett
	// delta; non-base versions materialize on demand by replaying deltas
	// onto the nearest earlier base — bit-identical to a clone taken
	// when the version was published. 0 disables: a streamed version is
	// then answerable only while it is the live head.
	HistoryBase int
	// HistoryBudgetBytes bounds the bytes retained by materialized
	// (non-base) solvers in the history LRU. <= 0 means 64 MiB.
	HistoryBudgetBytes int64
	// Tracer, when non-nil, traces every query through the pipeline
	// stages (resolve → coalesce → admit → batch → solve) with
	// tail-based retention; see internal/trace. nil disables tracing —
	// the pipeline then runs exactly as before, with no per-query
	// tracing cost at all.
	Tracer *trace.Tracer
}

// Query is one measure request.
type Query struct {
	// Snapshot selects the matrix sequence index; negative means the
	// latest pinned snapshot.
	Snapshot int `json:"snapshot"`
	// Measure is one of the Measure* constants.
	Measure string `json:"measure"`
	// Source is the seed node for rwr and topk.
	Source int `json:"source"`
	// Sources is the seed set for ppr.
	Sources []int `json:"sources,omitempty"`
	// K is the result size for topk.
	K int `json:"k,omitempty"`
	// Damping must be 0 (use the engine's) or equal the engine's.
	Damping float64 `json:"damping,omitempty"`
}

// Response is a query answer. Scores is the full measure vector for
// rwr/ppr/pagerank; for topk, Nodes lists the top-K ids (score
// descending, ties by ascending id) and Scores their scores.
type Response struct {
	Snapshot int       `json:"snapshot"`
	Measure  string    `json:"measure"`
	Damping  float64   `json:"damping"`
	Nodes    []int     `json:"nodes,omitempty"`
	Scores   []float64 `json:"scores"`
	CacheHit bool      `json:"cache_hit"`
	// Live marks an answer computed from an attached live source's
	// current factors (see AttachLive); Version is the source's factor
	// version the answer reflects. Version is always serialized — a
	// live answer at version 0 is still versioned — and is meaningful
	// only when Live is true.
	Live    bool   `json:"live,omitempty"`
	Version uint64 `json:"version"`

	// hit is the cache entry a QueryShared hit was read from (see
	// HitBody); nil on every other answer and on everything Query returns.
	hit *cacheEntry
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Queries          int64 `json:"queries"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	ColdSolves       int64 `json:"cold_solves"`
	Rejected         int64 `json:"rejected"` // validation/cancellation failures
	SnapshotsPinned  int64 `json:"snapshots_pinned"`
	SnapshotsEvicted int64 `json:"snapshots_evicted"`
	CacheEvictions   int64 `json:"cache_evictions"`
	CacheEntries     int   `json:"cache_entries"`
	Retained         int   `json:"retained_snapshots"`
	Workers          int   `json:"workers"`

	// Admission-pipeline counters. Every submitted query (Queries) is
	// classified exactly once: Coalesced joined an identical in-flight
	// query and waited for its answer instead of computing its own;
	// Shed was fast-failed with ErrOverloaded at the full admission
	// queue; Admitted entered the serving path (cache hits, enqueued
	// solves, and queries later rejected by validation all count).
	// Invariant: Admitted + Coalesced + Shed == Queries.
	Admitted  int64 `json:"admitted"`
	Coalesced int64 `json:"coalesced"`
	Shed      int64 `json:"shed"`

	// Latency percentiles (µs) over successfully answered queries,
	// measured from Query entry to answer, on a log₂-bucketed
	// histogram (values are bucket upper bounds, ≤ 2× the true
	// quantile).
	LatencyCount int64   `json:"latency_count"`
	LatencyP50us float64 `json:"latency_p50_us"`
	LatencyP95us float64 `json:"latency_p95_us"`
	LatencyP99us float64 `json:"latency_p99_us"`

	// LatencyExemplars links the latency histogram back to retained
	// traces: per log₂ bucket, the trace ID of the slowest retained
	// trace of the current window (Config.Tracer; empty when tracing
	// is off or nothing was retained recently). Resolve an entry with
	// /v1/traces/{trace_id}.
	LatencyExemplars []LatencyExemplar `json:"latency_exemplars,omitempty"`

	// Solve-path breakdown of the cold solves: DenseSolves counts the
	// solver-backed ones (one substitution each), KatzSolves those
	// answered through the graph-backed Katz factorization.
	// DenseSolves + KatzSolves == ColdSolves.
	DenseSolves int64 `json:"dense_solves"`
	KatzSolves  int64 `json:"katz_solves"`

	// QueryStages breaks the pipeline down per stage (resolve,
	// coalesce, admit, batch, solve — see hist.go for exact stage
	// semantics), from the same histograms /metrics exposes as
	// clude_query_stage_seconds.
	QueryStages map[string]StageLatency `json:"query_stages"`

	// Live-source counters: LiveQueries counts answers served from the
	// attached live source's hot factors, LiveVersion its latest
	// published version at the time of the Stats call.
	LiveAttached bool   `json:"live_attached"`
	LiveQueries  int64  `json:"live_queries"`
	LiveVersion  uint64 `json:"live_version"`

	// Disk-spill counters (Config.SpillDir): snapshots written on
	// eviction, transparent reloads on access, and spill-path failures
	// (each of which degraded to the no-spill behavior).
	SnapshotsSpilled int64 `json:"snapshots_spilled"`
	SpillReloads     int64 `json:"spill_reloads"`
	SpillErrors      int64 `json:"spill_errors"`

	// Delta-compressed history counters (Config.HistoryBase; see
	// history.go). HistoryVersions is the record-log window size and
	// HistoryLogBytes its retained bytes; HistoryResidents /
	// HistoryResidentBytes describe the materialized-solver LRU against
	// HistoryBudgetBytes; HistoryBasePins counts full clones pinned at
	// chain bases. Of the HistoryRequests routed through the history
	// layer, only HistoryMaterializations paid a replay (HistoryHits hit
	// the LRU; the rest joined an in-flight replay or the query cache) —
	// HistoryDedupRatio = requests/materializations is the sharing
	// factor.
	HistoryEnabled          bool    `json:"history_enabled"`
	HistoryBase             int     `json:"history_base,omitempty"`
	HistoryVersions         int     `json:"history_versions,omitempty"`
	HistoryLogBytes         int64   `json:"history_log_bytes,omitempty"`
	HistoryResidents        int     `json:"history_residents,omitempty"`
	HistoryResidentBytes    int64   `json:"history_resident_bytes,omitempty"`
	HistoryBudgetBytes      int64   `json:"history_budget_bytes,omitempty"`
	HistoryBasePins         int64   `json:"history_base_pins,omitempty"`
	HistoryRequests         int64   `json:"history_requests,omitempty"`
	HistoryMaterializations int64   `json:"history_materializations,omitempty"`
	HistoryHits             int64   `json:"history_hits,omitempty"`
	HistoryEvictions        int64   `json:"history_evictions,omitempty"`
	HistoryDedupRatio       float64 `json:"history_dedup_ratio,omitempty"`
}

// LatencyExemplar is one bucket's exemplar: the slowest retained
// trace observed in the bucket's current window.
type LatencyExemplar struct {
	// BucketLEs is the latency bucket's upper bound in seconds — the
	// same le the exposition renders for clude_query_latency_seconds.
	BucketLEs float64 `json:"bucket_le_s"`
	// ValueUS is the exemplar observation in microseconds.
	ValueUS float64 `json:"value_us"`
	// TraceID resolves via /v1/traces/{id} while the retention ring
	// still holds the trace.
	TraceID string `json:"trace_id"`
	// AgeS is how long ago the exemplar was observed.
	AgeS float64 `json:"age_s"`
}

// LatencyExemplars snapshots the latency histogram's exemplar sidecar.
func (e *Engine) LatencyExemplars() []LatencyExemplar {
	exs := e.latEx.Snapshot()
	if len(exs) == 0 {
		return nil
	}
	now := time.Now()
	out := make([]LatencyExemplar, len(exs))
	for i, ex := range exs {
		out[i] = LatencyExemplar{
			BucketLEs: ex.UpperS,
			ValueUS:   float64(ex.NS) / 1e3,
			TraceID:   trace.TraceID(ex.ID).String(),
			AgeS:      now.Sub(ex.At).Seconds(),
		}
	}
	return out
}

// HitRate returns the cache hit fraction over answered queries.
func (s Stats) HitRate() float64 {
	if t := s.CacheHits + s.CacheMisses; t > 0 {
		return float64(s.CacheHits) / float64(t)
	}
	return 0
}

// Engine serves measure queries from pinned per-snapshot solvers.
type Engine struct {
	cfg   Config
	cache *lruCache

	mu     sync.RWMutex
	snaps  map[int]snapEntry
	pinned []int // retention order (pin order), oldest first
	latest int
	gen    uint64 // bumped per Pin; stamps cache keys (see snapEntry)

	queue     chan *task
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Single-flight table: one entry per cache key with a solve in
	// flight. Guarded by flightMu, which also orders the leader's
	// cache-fill-then-delete against a new leader's miss-then-create
	// (see joinFlight).
	flightMu sync.Mutex
	flights  map[string]*flight

	queries, hits, misses, solves   atomic.Int64
	rejected, pinCount, snapEvicted atomic.Int64
	cacheEvicted                    atomic.Int64
	admitted, coalesced, shed       atomic.Int64
	denseSolves, katzSolves         atomic.Int64
	lat                             metrics.Histogram
	stages                          [numStages]metrics.Histogram

	// Request tracing (Config.Tracer) and the latency histogram's
	// exemplar sidecar: latEx remembers, per log₂ bucket and time
	// window, the trace ID of the slowest retained trace — the bridge
	// from a scrape-level percentile to a replayable trace.
	tracer *trace.Tracer
	latEx  metrics.Exemplars

	// Live source (see live.go). Guarded by mu; read once per query and
	// released before the source's lock is taken, so the lock orders
	// "source → e.mu" (base pins from the publish hook) and
	// "e.mu → source" never both occur. liveGen bumps on every
	// AttachLive and stamps live cache keys, so a swapped-in source can
	// never be served answers computed from its predecessor's factors
	// (the live twin of the pinned store's pin generation).
	live        LiveSource
	liveGen     uint64
	liveQueries atomic.Int64

	// Graph source for graph-backed measures (katz); see graphs.go.
	// Guarded by mu like the live source.
	graphs GraphSource

	// Disk-spill state (see spill.go). spill is the directory, nil when
	// spilling is off. spillMu guards the in-flight write queue and the
	// pending map; it is only ever taken alone or after e.mu, never
	// before it. spillKick wakes the background writer.
	spill                                *store.Files
	spillMu                              sync.Mutex
	spillPending                         map[int]*lu.Solver
	spillQueue                           []evictedSnap
	spillKick                            chan struct{}
	spillWrites, spillLoads, spillErrors atomic.Int64

	// Delta-compressed history state (see history.go). Always
	// allocated so stats/metrics reads are nil-safe; active only when
	// Config.HistoryBase > 0.
	hist *histState
}

// evictedSnap carries an evicted snapshot out of the locked region of
// Pin to the spill/purge path.
type evictedSnap struct {
	idx int
	s   *lu.Solver
}

// snapEntry is one retained snapshot: the pinned solver plus the pin
// generation its cache keys are stamped with. Re-pinning a snapshot
// index bumps the generation, so answers computed from the old solver
// — even ones a concurrent worker stores after the re-pin — are keyed
// under the old generation and can never be served for the new
// factors; the LRU ages them out.
type snapEntry struct {
	s   *lu.Solver
	gen uint64
}

// New starts an engine and its worker pool. Callers must Close it.
func New(cfg Config) *Engine {
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8 * cfg.Workers
	}
	e := &Engine{
		cfg:          cfg,
		cache:        newLRUCache(cfg.CacheSize),
		snaps:        make(map[int]snapEntry),
		latest:       -1,
		queue:        make(chan *task, cfg.QueueDepth),
		closed:       make(chan struct{}),
		flights:      make(map[string]*flight),
		spillPending: make(map[int]*lu.Solver),
		spillKick:    make(chan struct{}, 1),
		hist:         newHistState(cfg.HistoryBudgetBytes),
		tracer:       cfg.Tracer,
	}
	if cfg.SpillDir != "" {
		e.initSpill()
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops the worker pool; calling it again is a no-op. Queries
// in flight after Close may return ErrClosed; pinned snapshots stay
// readable until the engine is garbage collected.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.closed) })
	e.wg.Wait()
}

// Pin retains the solver for snapshot i, taking ownership (callers
// must hand over a solver whose factors are not updated afterwards —
// a clone taken in the core.Options.OnFactors callback is one). When the store
// is over its bound, the oldest pinned snapshot is evicted together
// with its cached answers, so a snapshot is either fully served or
// consistently ErrUnknownSnapshot — never a mix depending on which
// query happened to be cached.
func (e *Engine) Pin(i int, s *lu.Solver) {
	var evicted []evictedSnap
	e.mu.Lock()
	e.gen++
	if _, ok := e.snaps[i]; !ok {
		e.pinned = append(e.pinned, i)
	}
	e.snaps[i] = snapEntry{s: s, gen: e.gen}
	if i > e.latest {
		e.latest = i
	}
	for len(e.pinned) > e.cfg.MaxSnapshots {
		old := e.pinned[0]
		e.pinned = e.pinned[1:]
		evicted = append(evicted, evictedSnap{idx: old, s: e.snaps[old].s})
		delete(e.snaps, old)
		e.snapEvicted.Add(1)
	}
	if _, ok := e.snaps[e.latest]; !ok {
		// Eviction removed the latest (out-of-order pins can do that);
		// re-resolve it from what is still retained so Snapshot: -1
		// keeps answering.
		e.latest = -1
		for _, idx := range e.pinned {
			if idx > e.latest {
				e.latest = idx
			}
		}
	}
	e.mu.Unlock()
	e.pinCount.Add(1)
	e.handleEvicted(evicted)
}

// OnFactors adapts Pin to the core.Options.OnFactors signature: it
// pins a clone of each snapshot's solver, the engine's own factors
// being updated in place after the callback:
//
//	core.Run(ems, core.CLUDE, core.Options{
//		Alpha: 0.95, OnFactors: eng.OnFactors(),
//	})
func (e *Engine) OnFactors() func(i int, s *lu.Solver) {
	return func(i int, s *lu.Solver) { e.Pin(i, s.Clone()) }
}

// Snapshots returns the retained snapshot indices in ascending order.
func (e *Engine) Snapshots() []int {
	e.mu.RLock()
	out := append([]int(nil), e.pinned...)
	e.mu.RUnlock()
	sort.Ints(out)
	return out
}

// Latest returns the highest pinned snapshot index (-1 when empty).
func (e *Engine) Latest() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.latest
}

// Stats returns a consistent-enough snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	retained := len(e.pinned)
	e.mu.RUnlock()
	lat := e.lat.Snapshot()
	st := Stats{
		Queries:          e.queries.Load(),
		CacheHits:        e.hits.Load(),
		CacheMisses:      e.misses.Load(),
		ColdSolves:       e.solves.Load(),
		Rejected:         e.rejected.Load(),
		SnapshotsPinned:  e.pinCount.Load(),
		SnapshotsEvicted: e.snapEvicted.Load(),
		CacheEvictions:   e.cacheEvicted.Load(),
		CacheEntries:     e.cache.len(),
		Retained:         retained,
		Workers:          e.cfg.Workers,
		Admitted:         e.admitted.Load(),
		Coalesced:        e.coalesced.Load(),
		Shed:             e.shed.Load(),
		LatencyCount:     lat.Total,
		LatencyP50us:     lat.QuantileUS(0.50),
		LatencyP95us:     lat.QuantileUS(0.95),
		LatencyP99us:     lat.QuantileUS(0.99),
		DenseSolves:      e.denseSolves.Load(),
		KatzSolves:       e.katzSolves.Load(),
		SnapshotsSpilled: e.spillWrites.Load(),
		SpillReloads:     e.spillLoads.Load(),
		SpillErrors:      e.spillErrors.Load(),
	}
	st.QueryStages = make(map[string]StageLatency, numStages)
	for i, name := range stageNames {
		s := e.stages[i].Snapshot()
		st.QueryStages[name] = StageLatency{
			Count: s.Total,
			P50us: s.QuantileUS(0.50),
			P95us: s.QuantileUS(0.95),
			P99us: s.QuantileUS(0.99),
		}
	}
	st.LatencyExemplars = e.LatencyExemplars()
	if src, _ := e.liveSource(); src != nil {
		st.LiveAttached = true
		st.LiveQueries = e.liveQueries.Load()
		src.View(func(v uint64, _ *lu.Solver) { st.LiveVersion = v })
	}
	e.historyStats(&st)
	return st
}

// Query answers q, blocking until the answer is computed (or shared
// from an identical in-flight query), the context is cancelled, the
// per-request deadline expires, the admission queue sheds the query,
// or the engine closes. The caller owns the returned Scores and Nodes.
func (e *Engine) Query(ctx context.Context, q Query) (*Response, error) {
	resp, err := e.QueryShared(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.Scores = append([]float64(nil), resp.Scores...)
	if resp.Nodes != nil {
		resp.Nodes = append([]int(nil), resp.Nodes...)
	}
	resp.hit = nil
	return resp, nil
}

// QueryShared is Query without the copies, for a caller that only
// serializes the answer: Scores and Nodes alias the cache entry every
// other reader of the key sees and must not be written. A cache hit
// additionally carries its entry's encoded body (Response.HitBody,
// Response.StoreHitBody), so a transport can encode a key's hit once
// and write the same bytes on every later hit without touching the
// vector at all.
func (e *Engine) QueryShared(ctx context.Context, q Query) (*Response, error) {
	e.queries.Add(1)
	if e.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
		defer cancel()
	}
	// The latency clock read doubles as the trace's root start: on this
	// path a time.Now costs as much as the rest of a span, so tracing
	// shares every timestamp serve already takes.
	start := time.Now()
	tr := e.tracer.StartRequestAt(ctx, "query", start)
	if tr != nil {
		root := tr.Root()
		root.SetString("measure", q.Measure)
		root.SetInt("snapshot", int64(q.Snapshot))
		root.SetInt("source", int64(q.Source))
	}
	resp, err := e.dispatch(ctx, q, tr)
	if err != nil {
		e.rejected.Add(1)
		return nil, err
	}
	e.lat.Observe(time.Since(start))
	return resp, nil
}

// dispatch runs the admission pipeline: resolve the route, try the
// cache, join or lead a flight, enqueue (or shed), and wait. Trace
// ownership follows the answer's path: dispatch finishes tr itself on
// the paths that answer (or fail) inline, a coalesced follower
// finishes its own trace in await, and every path that hands the task
// to a worker transfers the trace with it — e.finish completes it
// there, before the flight's waiters are released.
func (e *Engine) dispatch(ctx context.Context, q Query, tr *trace.Trace) (*Response, error) {
	select {
	case <-e.closed:
		e.admitted.Add(1)
		e.traceDone(tr, ErrClosed)
		return nil, ErrClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		e.admitted.Add(1)
		e.traceDone(tr, err)
		return nil, err
	}

	r0 := time.Now()
	t, err := e.resolve(q)
	rd := time.Since(r0)
	e.stages[stageResolve].Observe(rd)
	tr.Record("resolve", r0, rd)
	if err != nil {
		e.admitted.Add(1)
		e.traceDone(tr, err)
		return nil, err
	}
	t.tr = tr

	if t.keyed {
		fl, leader, hit := e.joinFlight(t)
		if hit != nil {
			e.admitted.Add(1)
			e.hits.Add(1)
			if t.live {
				e.liveQueries.Add(1)
			}
			tr.Root().SetBool("cache_hit", true)
			e.traceDone(tr, nil)
			return respond(t.snap, q.Measure, t.damping, hit.ans, hit, t.version, t.live), nil
		}
		t.fl = fl
		if !leader {
			// A follower's trace links to the leader's span instead of
			// duplicating the solve: the follower records only its
			// coalesce wait, and the link resolves to the trace that
			// carries the solve's spans.
			t.coalesced = true
			e.coalesced.Add(1)
			tr.Link(fl.lead)
			tr.Root().SetBool("coalesced", true)
			return e.await(ctx, t)
		}
	} else {
		// Unkeyed (the spill-reload race fallback): no cache entry and
		// no coalescing, but the flight still carries the answer back.
		t.fl = newFlight()
	}

	// Admission: a full queue sheds immediately — the caller gets
	// ErrOverloaded now rather than a slow answer later, and any
	// followers that already joined the flight inherit the error.
	t.enqueuedAt = time.Now()
	select {
	case e.queue <- t:
		e.admitted.Add(1)
	default:
		e.shed.Add(1)
		tr.Root().SetBool("shed", true)
		e.finish(t, answer{}, ErrOverloaded)
		return nil, ErrOverloaded
	}
	return e.await(ctx, t)
}

// await blocks on the task's flight. A waiter abandoning the flight
// (context cancelled, engine closed) never affects the flight itself:
// the worker completes it for whoever remains, and the cache fill
// happens regardless — cancellation cannot poison the shared result.
//
// Trace ownership here: a coalesced follower owns its trace and
// finishes it on every exit; a leader's trace travels with the task
// and is finished by e.finish on the worker side (possibly after an
// abandoning leader has already returned), so await never touches it.
func (e *Engine) await(ctx context.Context, t *task) (*Response, error) {
	fl := t.fl
	var w0 time.Time
	if t.coalesced {
		w0 = time.Now()
	}
	done := func(err error) {
		if t.coalesced {
			d := time.Since(w0)
			e.stages[stageCoalesce].Observe(d)
			t.tr.Record("coalesce", w0, d)
			e.traceDone(t.tr, err)
		}
	}
	select {
	case <-fl.done:
		if fl.err != nil {
			done(fl.err)
			return nil, fl.err
		}
		if t.coalesced {
			// A follower's answer came from the shared solve: for the
			// cache-accounting invariants it is a hit (the leader
			// recorded the miss and the cold solve).
			e.hits.Add(1)
		}
		if fl.live {
			e.liveQueries.Add(1)
		}
		done(nil)
		return respond(fl.snap, t.q.Measure, t.damping, fl.ans, nil, fl.version, fl.live), nil
	case <-ctx.Done():
		done(ctx.Err())
		return nil, ctx.Err()
	case <-e.closed:
		done(ErrClosed)
		return nil, ErrClosed
	}
}

// resolve validates q and binds it to its serving route — the attached
// live source for latest-state queries when one is publishing, a
// pinned snapshot's solver otherwise — and derives the cache/flight
// key. Routing at submission is what makes coalescing sound: the key
// carries the pin generation (pinned) or attach generation and
// published version (live), so two queries coalesce only when they are
// provably answerable by the same factors.
func (e *Engine) resolve(q Query) (*task, error) {
	if q.Measure == MeasureKatz {
		// Graph-backed route: answered from the snapshot's graph, not
		// the pinned factors, so the damping-compatibility rule below
		// does not apply (Damping carries the Katz α instead).
		return e.resolveKatz(q)
	}
	damping := q.Damping
	if damping == 0 {
		damping = e.cfg.Damping
	}
	if damping != e.cfg.Damping {
		return nil, fmt.Errorf("serve: damping %v not served (factors built for %v)", damping, e.cfg.Damping)
	}
	t := &task{q: q, damping: damping}

	if q.Snapshot < 0 {
		if src, gen := e.liveSource(); src != nil {
			var n int
			viewed := src.View(func(version uint64, s *lu.Solver) {
				t.version = version
				n = s.F.Dim()
			})
			if viewed {
				t.live, t.src, t.liveGen = true, src, gen
				t.snap = int(t.version)
				if err := t.canonicalize(n); err != nil {
					return nil, err
				}
				t.keyed = true
				t.prefix = livePrefix(gen, t.version)
				t.flightKey = t.prefix + t.suffix
				return t, nil
			}
		}
	}

	e.mu.RLock()
	snap := q.Snapshot
	if snap < 0 {
		snap = e.latest
	}
	entry, ok := e.snaps[snap]
	e.mu.RUnlock()
	if snap < 0 {
		return nil, ErrNoSnapshots
	}
	if !ok {
		// History route: a version whose factors were never pinned (or
		// were evicted) but is reachable as base+delta — resident in the
		// materialized LRU, or replayable by a worker.
		if routed, herr := e.resolveHistory(t, snap); routed {
			if herr != nil {
				return nil, herr
			}
			return t, nil
		}
		// Transparent reload of a spilled snapshot: read it back,
		// re-pin it (possibly spilling another cold snapshot), and
		// serve. The re-lookup below picks up the fresh pin generation
		// for the cache key; losing the race to an immediate re-evict
		// just answers uncached from the loaded solver.
		sv, loaded := e.loadSpilled(snap)
		if !loaded {
			return nil, fmt.Errorf("%w: %d", ErrUnknownSnapshot, snap)
		}
		e.Pin(snap, sv)
		e.mu.RLock()
		entry, ok = e.snaps[snap]
		e.mu.RUnlock()
		if !ok {
			t.solver, t.snap = sv, snap
			return t, t.canonicalize(sv.F.Dim())
		}
	}
	t.solver, t.snap = entry.s, snap
	if err := t.canonicalize(entry.s.F.Dim()); err != nil {
		return nil, err
	}
	t.keyed = true
	t.prefix = pinnedPrefix(snap, entry.gen)
	t.flightKey = t.prefix + t.suffix
	return t, nil
}

// respond builds a Response around the answer's own slices, which the
// cache and every other waiter of the flight share: Query copies them
// before they reach a caller that may write. hit is the cache entry the
// answer was read from — nil for a solved or coalesced answer, so only
// dispatch's hit path ever says cache_hit: true.
func respond(snap int, measure string, damping float64, ans answer, hit *cacheEntry, version uint64, live bool) *Response {
	return &Response{
		Snapshot: snap,
		Measure:  measure,
		Damping:  damping,
		Nodes:    ans.nodes,
		Scores:   ans.scores,
		CacheHit: hit != nil,
		Live:     live,
		Version:  version,
		hit:      hit,
	}
}

// pinnedPrefix is the cache-key namespace of a pinned snapshot: the
// snapshot index stamped with its pin generation, so a re-pinned
// snapshot can never serve answers computed from its previous factors.
// Eviction purges by the "<snap>#" prefix.
func pinnedPrefix(snap int, gen uint64) string {
	return strconv.Itoa(snap) + "#" + strconv.FormatUint(gen, 10)
}

// livePrefix is the cache-key namespace of a live version, stamped with
// the attach generation. It can never collide with a pinned prefix
// (those start with a digit or '-'); within one attached source
// versions are monotone, and across re-attaches the generation changes,
// so stale live answers are unreachable and simply age out of the LRU.
func livePrefix(gen, version uint64) string {
	return "live#" + strconv.FormatUint(gen, 10) + "#" + strconv.FormatUint(version, 10)
}

// keySuffix canonicalizes the query payload into the rest of the cache
// key. Damping is rendered in hex float so distinct values can never
// collide; ppr seeds arrive sorted and deduplicated, so equivalent seed
// sets share an entry.
func keySuffix(measure string, source int, seeds []int, k int, damping float64) string {
	var b strings.Builder
	b.WriteByte('|')
	b.WriteString(measure)
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(damping, 'x', -1, 64))
	b.WriteByte('|')
	switch measure {
	case MeasureRWR:
		b.WriteString(strconv.Itoa(source))
	case MeasureTopK:
		b.WriteString(strconv.Itoa(source))
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(k))
	case MeasurePPR:
		for i, s := range seeds {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(s))
		}
	}
	return b.String()
}
