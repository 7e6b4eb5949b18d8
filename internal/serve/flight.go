package serve

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/trace"
)

// Single-flight coalescing: identical concurrent queries — same
// factors (snapshot + pin generation, or live source + attach
// generation + published version), same measure, source, seeds, k and
// damping — share one solve and one cache fill. The flight key IS the
// cache key, so the coalescing horizon is exactly the cache-coherence
// horizon: two queries coalesce if and only if a cache entry written
// by one could have served the other.

// task is one resolved query on its way through the pipeline: the
// validated payload, its serving route, its cache/flight key, and the
// flight that will carry the answer back to every waiter.
type task struct {
	q       Query
	seeds   []int  // canonical restart set: ppr's seed set (sorted, deduplicated) or the rwr/topk source
	source  [1]int // backs seeds for the single-source measures
	damping float64

	fl        *flight
	coalesced bool // joined an existing flight; awaits, never enqueues

	// Route: either an attached live source (live, src, liveGen,
	// version as resolved) or a pinned snapshot's solver. For live
	// tasks the worker re-reads version/snap/prefix under the source's
	// view at solve time; the resolve-time values only key the flight.
	live    bool
	src     LiveSource
	liveGen uint64
	solver  *lu.Solver
	snap    int
	version uint64

	// graph is the katz route's input (see graphs.go); solver-backed
	// tasks leave it nil.
	graph *graph.Graph

	// hist marks a history-routed task (see history.go). When its
	// solver is nil the worker materializes the version before solving
	// (serveHistGroup); a resident version binds its solver at resolve
	// time and flows like any pinned task.
	hist bool

	// keyed is false only on the spill-reload race fallback, whose
	// answers have no stable generation: no cache entry, no coalescing.
	keyed     bool
	prefix    string // cache-key namespace (generation-stamped)
	suffix    string // canonical query payload (keySuffix)
	flightKey string

	// Stage-tracing timestamps (see hist.go): set at enqueue and at
	// worker dequeue.
	enqueuedAt time.Time
	dequeuedAt time.Time

	// Request trace (nil when tracing is off). Ownership follows the
	// flight: the goroutine that calls e.finish finishes a leader's
	// trace; a coalesced follower finishes its own in await. solveSpan
	// is the worker's open solve span, auto-closed at trace finish.
	tr        *trace.Trace
	solveSpan *trace.Span
}

// canonicalize validates the query payload against dimension n and
// derives the canonical seed set and the cache-key suffix.
func (t *task) canonicalize(n int) error {
	q := t.q
	switch q.Measure {
	case MeasureRWR, MeasureTopK:
		if q.Source < 0 || q.Source >= n {
			return fmt.Errorf("serve: source %d outside [0,%d)", q.Source, n)
		}
		if q.Measure == MeasureTopK && q.K <= 0 {
			return fmt.Errorf("serve: topk needs k > 0, got %d", q.K)
		}
		t.source[0] = q.Source
		t.seeds = t.source[:]
	case MeasurePPR:
		if len(q.Sources) == 0 {
			return fmt.Errorf("serve: ppr needs a non-empty seed set")
		}
		seeds := append([]int(nil), q.Sources...)
		sort.Ints(seeds)
		// Deduplicate: PPR's restart mass is uniform over the seed
		// *set*; a repeated seed must not change the answer (or the
		// cache key).
		w := 0
		for _, s := range seeds {
			if s < 0 || s >= n {
				return fmt.Errorf("serve: seed %d outside [0,%d)", s, n)
			}
			if w == 0 || seeds[w-1] != s {
				seeds[w] = s
				w++
			}
		}
		t.seeds = seeds[:w]
	case MeasurePageRank:
	default:
		return fmt.Errorf("serve: unknown measure %q", q.Measure)
	}
	t.suffix = keySuffix(q.Measure, q.Source, t.seeds, q.K, t.damping)
	return nil
}

// flight is one in-flight solve and its waiters' rendezvous. The
// leader's worker fills the fields and closes done; every waiter —
// leader and coalesced followers alike — reads them after done.
type flight struct {
	done    chan struct{}
	ans     answer
	snap    int
	version uint64
	live    bool
	err     error

	// lead is the leader's root span context, stamped before the
	// flight is published in the flights map (so any joiner that found
	// the flight observes it); followers link their traces to it
	// instead of duplicating the solve's spans.
	lead trace.SpanContext
}

func newFlight() *flight { return &flight{done: make(chan struct{})} }

// joinFlight is the single-flight admission point for a keyed task.
// Under flightMu it either joins an existing flight for the key
// (leader false), hits the cache (hit non-nil), or registers a new flight
// with the caller as leader. The cache recheck happens under the same
// lock that finish holds while deregistering — and finish fills the
// cache *before* deregistering — so the window "flight gone but cache
// not yet filled" cannot be observed: a query always either coalesces
// or sees the finished flight's cache entry (unless the LRU evicted
// it, in which case recomputing is correct, merely redundant).
func (e *Engine) joinFlight(t *task) (fl *flight, leader bool, hit *cacheEntry) {
	key := t.flightKey
	e.flightMu.Lock()
	defer e.flightMu.Unlock()
	if fl := e.flights[key]; fl != nil {
		return fl, false, nil
	}
	if hit := e.cache.get(key); hit != nil {
		return nil, false, hit
	}
	fl = newFlight()
	fl.lead = t.tr.Context()
	e.flights[key] = fl
	return fl, true, nil
}

// finish completes a task's flight: publish the answer (filling the
// cache first, then deregistering the flight — the order joinFlight's
// recheck relies on), account the solve, and release every waiter.
// Called exactly once per flight, by the worker that solved it or by
// the shedding dispatcher; waiter cancellation never reaches here, so
// an abandoned flight still completes and still fills the cache.
func (e *Engine) finish(t *task, ans answer, err error) {
	fl := t.fl
	fl.ans, fl.err = ans, err
	fl.snap, fl.version, fl.live = t.snap, t.version, t.live
	if err == nil {
		e.solves.Add(1)
		if t.keyed {
			// The flight's one cache miss, recorded by the leader; the
			// followers count as hits when they pick the answer up.
			e.misses.Add(1)
		}
		if t.prefix != "" {
			e.cacheEvicted.Add(int64(e.cache.put(t.prefix+t.suffix, ans)))
		}
	}
	if t.flightKey != "" {
		e.flightMu.Lock()
		delete(e.flights, t.flightKey)
		e.flightMu.Unlock()
	}
	if t.tr != nil {
		// Finish the trace before releasing the waiters: after done is
		// closed nothing may touch the (recycled) handle, and the order
		// guarantees a shed or solved query's trace is in the retention
		// ring by the time its caller returns.
		root := t.tr.Root()
		root.SetInt("version", int64(t.version))
		root.SetBool("live", t.live)
		e.traceDone(t.tr, err)
	}
	close(fl.done)
}

// traceDone finishes a trace and, when it was retained, offers its
// duration as a latency exemplar — so every exemplar ID resolves to a
// trace /v1/traces/{id} can actually serve.
func (e *Engine) traceDone(tr *trace.Trace, err error) {
	if tr == nil {
		return
	}
	out := tr.Finish(err)
	if err == nil && out.Retained {
		e.latEx.Observe(out.Duration, out.ID)
	}
}
