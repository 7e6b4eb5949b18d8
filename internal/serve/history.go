package serve

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bennett"
	"repro/internal/lu"
	"repro/internal/metrics"
)

// Delta-compressed version history (Config.HistoryBase): instead of
// pinning a factor clone per retained version, the engine pins a
// clone only at *bases* — every HistoryBase-th version plus every
// structural version — and keeps the Bennett rank-1 term sequence of
// every version in a bennett.HistoryLog. A query addressing a non-base
// version materializes its factors on demand: clone the nearest
// earlier base into a fresh container, replay the recorded terms
// (bit-identical to a clone taken when the version was published), and
// answer. Materialized solvers live in a byte-budgeted
// LRU (Config.HistoryBudgetBytes); concurrent queries for the same
// version share one replay through a per-version single-flight, on top
// of the ordinary query coalescing.
//
// Memory economy: a depth-D history at base spacing S retains D/S
// clones plus D delta records (each a few sparse vectors), instead of
// D clones. A static clone owns its values and shares the index
// structure with every other clone of the same structural run, so what
// shrinks by roughly S× is the values — the structure is paid once per
// structural version either way — while every version stays queryable.
// Replay depth (at most S−1) is the latency price, paid only on
// materialization misses; the history benchmark (internal/bench
// "history") measures both sides of the trade.

// defaultHistoryBudget bounds materialized-solver residency when
// Config.HistoryBudgetBytes is unset.
const defaultHistoryBudget = 64 << 20

// histResident is one materialized (non-base) solver held by the LRU.
// A static container owns only its values; its index structure is the
// base's, shared by every version materialized from that base.
type histResident struct {
	s     *lu.Solver
	base  uint64 // version it was replayed from
	owned int64  // bytes this resident alone keeps alive
}

// histStructure is the index structure residents of one base share,
// charged to the budget once for as long as any of them is resident
// (they keep it alive even if the base itself is evicted meanwhile).
type histStructure struct {
	residents int
	bytes     int64
}

// histFlight is the per-version single-flight for materialization:
// the first worker to need a version replays it, everyone else waits.
type histFlight struct {
	done chan struct{}
	s    *lu.Solver
	err  error
}

// histState is the engine's history machinery. The log has its own
// lock; mu guards residents/LRU/inflight; matMu serializes the one
// pooled MaterializeWorkspace (replays are coalesced per version, so
// materialization concurrency is rarely worth a workspace per worker).
//
// A materialized container is immutable once installed and is never
// recycled: tasks bind a resident's *lu.Solver at resolve time and may
// still be queued (or mid-solve) when the LRU evicts it, so reusing an
// evicted container's backing arrays for the next materialization
// would rewrite factors under a concurrent solve. Eviction only drops
// the reference; the GC reclaims the arrays once the last in-flight
// solve lets go.
type histState struct {
	log    *bennett.HistoryLog
	budget int64

	mu         sync.Mutex
	residents  map[uint64]*histResident
	structures map[uint64]*histStructure // by base version
	lruOrder   []uint64                  // least recently used first
	bytes      int64                     // residents' owned bytes + structures' bytes
	inflight   map[uint64]*histFlight

	// onTrim, when set (OnHistoryTrim, before serving starts), is
	// called with each new retention floor so the owner can compact
	// persisted history in step with the in-memory log.
	onTrim func(below uint64)

	matMu sync.Mutex
	mw    bennett.MaterializeWorkspace

	requests, materializations, hits atomic.Int64
	evictions, basePins              atomic.Int64
	replayDepth                      metrics.Histogram
}

func newHistState(budget int64) *histState {
	if budget <= 0 {
		budget = defaultHistoryBudget
	}
	return &histState{
		log:        bennett.NewHistoryLog(),
		budget:     budget,
		residents:  make(map[uint64]*histResident),
		structures: make(map[uint64]*histStructure),
		inflight:   make(map[uint64]*histFlight),
	}
}

// historyEnabled reports whether base+delta retention is configured.
func (e *Engine) historyEnabled() bool { return e.cfg.HistoryBase > 0 }

// histPrefix is the cache-key namespace of a materialized history
// version. No generation stamp is needed: a version's materialized
// factors are immutable content (bit-identical on every replay), so a
// cached answer can never go stale.
func histPrefix(v uint64) string {
	return "hist#" + strconv.FormatUint(v, 10)
}

// HistoryHook returns the core.StreamConfig.OnPublish callback that
// feeds the engine's history: every record enters the log, and bases —
// every HistoryBase-th version plus every structural version (those
// start a new delta chain; there is nothing to replay across them) —
// are pinned as full clones into the ordinary snapshot store, which
// also makes them subject to its eviction/spill policy. It is the one
// way a streamed version is kept: the clone is the deliberate,
// amortized exception to the zero-copy publish path.
func (e *Engine) HistoryHook() func(s *lu.Solver, rec bennett.VersionRecord) {
	base := uint64(e.cfg.HistoryBase)
	if base == 0 {
		base = 1
	}
	return func(s *lu.Solver, rec bennett.VersionRecord) {
		e.hist.log.Record(rec)
		if rec.Structural || rec.Version%base == 0 {
			e.hist.basePins.Add(1)
			e.Pin(int(rec.Version), s.Clone())
			// Pinning may have evicted (and with spill disabled,
			// dropped) the oldest base: records below the new retention
			// floor can never be replayed again, so the log sheds them
			// here instead of growing with the stream.
			e.trimHistory()
		}
	}
}

// OnHistoryTrim registers fn to run whenever the engine's history
// retention floor advances (see trimHistory): fn receives the oldest
// version that is still materializable, so a persistence layer can
// compact its history sidecar in step with the in-memory log. Call it
// once, before the stream starts publishing.
func (e *Engine) OnHistoryTrim(fn func(below uint64)) {
	e.hist.mu.Lock()
	e.hist.onTrim = fn
	e.hist.mu.Unlock()
}

// trimHistory drops log records below the oldest version whose full
// factors are still recoverable — no version below that floor can ever
// be materialized again (its chain has no reachable base), so its
// records are dead weight. Called whenever retention advances: base
// pins (HistoryHook) and spill-bound deletions (enforceSpillBound).
func (e *Engine) trimHistory() {
	if !e.historyEnabled() {
		return
	}
	floor, ok := e.historyFloor()
	if !ok {
		return
	}
	e.hist.log.TrimBelow(floor)
	e.hist.mu.Lock()
	fn := e.hist.onTrim
	e.hist.mu.Unlock()
	if fn != nil {
		fn(floor)
	}
}

// historyFloor returns the oldest retained base version: the smallest
// index pinned in RAM, pending spill, or spilled on disk. Versions
// below it are unanswerable.
func (e *Engine) historyFloor() (uint64, bool) {
	oldest := -1
	e.mu.RLock()
	for _, idx := range e.pinned {
		if idx >= 0 && (oldest < 0 || idx < oldest) {
			oldest = idx
		}
	}
	e.mu.RUnlock()
	if e.spillEnabled() {
		e.spillMu.Lock()
		for idx := range e.spilled {
			if idx >= 0 && (oldest < 0 || idx < oldest) {
				oldest = idx
			}
		}
		for idx := range e.spillPending {
			if idx >= 0 && (oldest < 0 || idx < oldest) {
				oldest = idx
			}
		}
		e.spillMu.Unlock()
	}
	if oldest < 0 {
		return 0, false
	}
	return uint64(oldest), true
}

// SeedHistory replays persisted history records into the log — the
// restart path: cludeserve loads the store's history file so versions
// before the recovered snapshot stay materializable (their bases are
// rescanned from the spill directory).
func (e *Engine) SeedHistory(recs []bennett.VersionRecord) {
	for _, rec := range recs {
		e.hist.log.Record(rec)
	}
}

// HistoryLog exposes the engine's log (the store layer reads it for
// stats; tests use it to inspect the window).
func (e *Engine) HistoryLog() *bennett.HistoryLog { return e.hist.log }

// retainedDim returns the dimension of any retained solver (all
// versions of one stream share it), for validating history-routed
// queries before their factors exist.
func (e *Engine) retainedDim() (int, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if entry, ok := e.snaps[e.latest]; ok {
		return entry.s.F.Dim(), true
	}
	for _, entry := range e.snaps {
		return entry.s.F.Dim(), true
	}
	return 0, false
}

// isRetainedBase reports whether version v's full factors are
// recoverable without replay: pinned in RAM, or spilled (pending or on
// disk) for transparent reload.
func (e *Engine) isRetainedBase(v uint64) bool {
	idx := int(v)
	e.mu.RLock()
	_, ok := e.snaps[idx]
	e.mu.RUnlock()
	if ok {
		return true
	}
	if !e.spillEnabled() {
		return false
	}
	e.spillMu.Lock()
	defer e.spillMu.Unlock()
	return e.spilled[idx] || e.spillPending[idx] != nil
}

// findHistoryBase walks the delta chain of version v back to the
// nearest retained base: the largest base b <= v whose records
// (b, v] are all present and non-structural. Reports false when no
// such base exists (log trimmed, chain crosses a rebuild with its
// base gone, or history empty).
func (e *Engine) findHistoryBase(v uint64) (uint64, bool) {
	lo, hi, ok := e.hist.log.Bounds()
	if !ok || v < lo || v > hi {
		return 0, false
	}
	for b := v; ; b-- {
		if b != v && e.isRetainedBase(b) {
			return b, true
		}
		rec, ok := e.hist.log.Get(b)
		if !ok || rec.Structural || b == lo {
			// Version b has no replayable delta from b−1 (or the log
			// ends here): only b itself could have served as the base,
			// and it is not retained.
			return 0, false
		}
	}
}

// resolveHistory tries to bind a snaps-miss query to the history
// route. Returns routed=false to let resolve fall through to the
// spill/unknown path. A resident version binds directly to its
// materialized solver; a materializable one leaves t.solver nil for
// the worker to fill (serveHistGroup), so replay CPU is spent inside
// the admitted worker pool, not on the caller's dispatch goroutine.
func (e *Engine) resolveHistory(t *task, snap int) (routed bool, err error) {
	if !e.historyEnabled() || snap < 0 {
		return false, nil
	}
	h := e.hist
	v := uint64(snap)
	h.mu.Lock()
	if r, ok := h.residents[v]; ok {
		h.touchLocked(v)
		h.mu.Unlock()
		h.requests.Add(1)
		h.hits.Add(1)
		t.solver, t.snap = r.s, snap
		if err := t.canonicalize(r.s.F.Dim()); err != nil {
			return true, err
		}
		t.keyed, t.hist = true, true
		t.prefix = histPrefix(v)
		t.flightKey = t.prefix + t.suffix
		return true, nil
	}
	h.mu.Unlock()
	if e.isRetainedBase(v) {
		// The version's own full factors are recoverable (spilled or
		// mid-spill): fall through to resolve's spill-reload path, which
		// reloads and re-pins them directly — cheaper than a clone +
		// replay from an earlier base, and it restores RAM residency.
		return false, nil
	}
	if _, ok := e.findHistoryBase(v); !ok {
		return false, nil
	}
	n, ok := e.retainedDim()
	if !ok {
		return false, nil
	}
	h.requests.Add(1)
	t.snap = snap
	if err := t.canonicalize(n); err != nil {
		return true, err
	}
	t.keyed, t.hist = true, true
	t.prefix = histPrefix(v)
	t.flightKey = t.prefix + t.suffix
	return true, nil
}

// serveHistGroup materializes (or joins the materialization of) the
// group's version, then solves the group against the materialized
// solver like any pinned group.
func (e *Engine) serveHistGroup(group []*task, w *workerScratch) {
	v := uint64(group[0].snap)
	m0 := time.Now()
	sv, err := e.historySolver(v)
	if group[0].tr != nil {
		// Materialization span with the attributes that explain a slow
		// history query: which base the chain replayed from and how
		// deep. An LRU hit records a ~zero-duration span with the same
		// attributes — the trace then shows the replay was amortized.
		md := time.Since(m0)
		b, hasBase := e.findHistoryBase(v)
		for _, t := range group {
			sp := t.tr.Record("materialize", m0, md)
			sp.SetInt("version", int64(v))
			if hasBase {
				sp.SetInt("base_version", int64(b))
				sp.SetInt("replay_depth", int64(v-b))
			}
		}
	}
	if err != nil {
		for _, t := range group {
			e.finish(t, answer{}, err)
		}
		return
	}
	for _, t := range group {
		t.solver = sv
	}
	e.solveGroup(group, sv, w)
}

// historySolver returns the materialized solver for version v: LRU
// hit, join of an in-flight replay, or a fresh materialization
// installed into the LRU.
func (e *Engine) historySolver(v uint64) (s *lu.Solver, err error) {
	h := e.hist
	h.mu.Lock()
	if r, ok := h.residents[v]; ok {
		h.touchLocked(v)
		h.mu.Unlock()
		h.hits.Add(1)
		return r.s, nil
	}
	if fl, ok := h.inflight[v]; ok {
		h.mu.Unlock()
		<-fl.done
		return fl.s, fl.err
	}
	fl := &histFlight{done: make(chan struct{})}
	h.inflight[v] = fl
	h.mu.Unlock()

	// The flight entry is removed and done closed on every exit —
	// including a panic inside the replay — so a failed materialization
	// can never wedge the version's single-flight: waiters always get
	// an answer or an error, and the next query retries fresh.
	var base uint64
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("serve: materializing version %d: panic: %v", v, r)
		}
		h.mu.Lock()
		delete(h.inflight, v)
		if err == nil && s != nil {
			h.installLocked(v, base, s)
		}
		h.mu.Unlock()
		fl.s, fl.err = s, err
		close(fl.done)
	}()
	s, base, err = e.materialize(v)
	return s, err
}

// materialize replays version v from its nearest retained base into a
// fresh container. The base is read from the snapshot store, or
// transparently reloaded from spill and re-pinned — the spill+history
// interaction contract: evicting a base never strands its dependent
// delta chain while the spill file exists. The container is always
// newly allocated (never an evicted resident's — see histState): once
// returned it is immutable, so solvers bound to it stay valid for as
// long as any task holds them. The base version replayed from is
// returned beside the solver.
func (e *Engine) materialize(v uint64) (*lu.Solver, uint64, error) {
	b, ok := e.findHistoryBase(v)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownSnapshot, int(v))
	}
	base, err := e.historyBaseSolver(int(b))
	if err != nil {
		return nil, 0, err
	}
	h := e.hist
	f, merr := func() (lu.Factors, error) {
		h.matMu.Lock()
		// Unlock via defer: a panicking replay (surfaced to the query as
		// an error by historySolver) must not leave the workspace locked.
		defer h.matMu.Unlock()
		return h.mw.Materialize(base.F, h.log, b, v, nil)
	}()
	if merr != nil {
		return nil, 0, fmt.Errorf("serve: materializing version %d from base %d: %w", v, b, merr)
	}
	h.materializations.Add(1)
	// The depth histogram reuses the duration-typed histogram with one
	// second per replayed version, so the exposed le bounds read as
	// (power-of-two) depths.
	h.replayDepth.Observe(time.Duration(v-b) * time.Second)
	return &lu.Solver{F: f, O: base.O}, b, nil
}

// historyBaseSolver fetches a base's pinned solver, reloading and
// re-pinning it from spill when evicted.
func (e *Engine) historyBaseSolver(idx int) (*lu.Solver, error) {
	e.mu.RLock()
	entry, ok := e.snaps[idx]
	e.mu.RUnlock()
	if ok {
		return entry.s, nil
	}
	sv, loaded := e.loadSpilled(idx)
	if !loaded {
		return nil, fmt.Errorf("%w: history base %d", ErrUnknownSnapshot, idx)
	}
	e.Pin(idx, sv)
	return sv, nil
}

// touchLocked promotes v to most recently used. Callers hold h.mu.
func (h *histState) touchLocked(v uint64) {
	for i, lv := range h.lruOrder {
		if lv == v {
			copy(h.lruOrder[i:], h.lruOrder[i+1:])
			h.lruOrder[len(h.lruOrder)-1] = v
			return
		}
	}
}

// installLocked adds a solver materialized from base to the LRU and
// evicts past the byte budget (never the entry just installed: one
// oversized resident is better than thrashing). A resident is charged
// what it owns; the index structure it shares with its base is charged
// once per base while any resident of that base remains. Eviction only
// drops the LRU's reference — the container is NOT recycled, because
// tasks that bound the resident's solver at resolve time may still be
// queued or solving against it; the GC reclaims it once they finish.
// Callers hold h.mu.
func (h *histState) installLocked(v, base uint64, s *lu.Solver) {
	if _, ok := h.residents[v]; ok {
		return // lost a (theoretical) race; keep the first
	}
	owned, shared := lu.MemBytes(s.F)
	h.residents[v] = &histResident{s: s, base: base, owned: owned}
	h.lruOrder = append(h.lruOrder, v)
	h.bytes += owned
	st := h.structures[base]
	if st == nil {
		st = &histStructure{bytes: shared}
		h.structures[base] = st
		h.bytes += shared
	}
	st.residents++
	for h.bytes > h.budget && len(h.lruOrder) > 1 {
		old := h.lruOrder[0]
		if old == v {
			break
		}
		h.lruOrder = h.lruOrder[1:]
		r := h.residents[old]
		delete(h.residents, old)
		h.bytes -= r.owned
		if st := h.structures[r.base]; st.residents == 1 {
			delete(h.structures, r.base)
			h.bytes -= st.bytes
		} else {
			st.residents--
		}
		h.evictions.Add(1)
	}
}

// VersionInfo describes one answerable history version for
// /v1/snapshots: "resident" versions have factors in RAM now (pinned
// base or LRU-materialized), "materializable" ones are answerable on
// demand (delta replay, or spill reload for an evicted base).
type VersionInfo struct {
	Version uint64 `json:"version"`
	State   string `json:"state"`
}

// HistoryVersions lists every version the history layer can currently
// answer, ascending. Nil when history is disabled or empty.
func (e *Engine) HistoryVersions() []VersionInfo {
	if !e.historyEnabled() {
		return nil
	}
	h := e.hist
	lo, hi, ok := h.log.Bounds()
	if !ok {
		return nil
	}
	out := make([]VersionInfo, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		e.mu.RLock()
		_, pinned := e.snaps[int(v)]
		e.mu.RUnlock()
		h.mu.Lock()
		_, resident := h.residents[v]
		h.mu.Unlock()
		switch {
		case pinned || resident:
			out = append(out, VersionInfo{Version: v, State: "resident"})
		case e.isRetainedBase(v):
			out = append(out, VersionInfo{Version: v, State: "materializable"})
		default:
			if _, ok := e.findHistoryBase(v); ok {
				out = append(out, VersionInfo{Version: v, State: "materializable"})
			}
		}
	}
	return out
}

// historyStats fills the history_* block of Stats.
func (e *Engine) historyStats(st *Stats) {
	h := e.hist
	st.HistoryEnabled = e.historyEnabled()
	st.HistoryBase = e.cfg.HistoryBase
	st.HistoryVersions = h.log.Len()
	st.HistoryLogBytes = h.log.Bytes()
	st.HistoryBudgetBytes = h.budget
	h.mu.Lock()
	st.HistoryResidents = len(h.residents)
	st.HistoryResidentBytes = h.bytes
	h.mu.Unlock()
	st.HistoryBasePins = h.basePins.Load()
	st.HistoryRequests = h.requests.Load()
	st.HistoryMaterializations = h.materializations.Load()
	st.HistoryHits = h.hits.Load()
	st.HistoryEvictions = h.evictions.Load()
	if m := st.HistoryMaterializations; m > 0 {
		st.HistoryDedupRatio = float64(st.HistoryRequests) / float64(m)
	}
}
