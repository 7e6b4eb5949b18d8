package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
)

// This file is the streaming execution engine: where Run consumes a
// fully pre-materialized matrix sequence, Stream consumes a live feed
// of edge-delta batches and keeps LU factors current as the graph
// evolves — the deployment the paper actually motivates. Each applied
// batch produces one factor *version*; versions are hot-published by
// reference (freeze-on-publish under a reader/writer lock) instead of
// deep-cloned, so the update loop never pays an O(nnz) copy per batch.
//
//	edge events ──▶ Batcher ──▶ Stream.Apply ──▶ strategy step ──▶ publish
//	                (grouping)   (graph.Builder,   (Bennett update      (version++,
//	                              dirty columns)    or cluster restart)  live view)
//
// A batch costs what it changed: the builder reports the edges that
// really changed, the deriver names the matrix columns they dirty, and
// ∆A is those columns before against after — the whole matrix is
// materialized only when a step rebuilds or refactorizes. The invariant
// underneath is that the factors always belong to the deriver's matrix
// of the builder's graph in the current ordering, which is why a batch
// whose step fails is taken back whole (graph, tracker, counters).
//
// The four strategies are re-expressed online:
//
//   - BF re-orders and re-factorizes every version (the baseline).
//   - INC keeps one dynamic container for the whole stream, ordered by
//     the initial matrix, advanced by Bennett updates.
//   - CINC tracks α-cluster membership incrementally (cluster.Tracker);
//     while a batch's matrix extends the cluster the dynamic container
//     absorbs the delta, otherwise a fresh cluster opens.
//   - CLUDE additionally maintains a static USSP container built from
//     the *running* cluster union. A member whose pattern stays inside
//     the union at the last (re)build updates in place (Theorem 1
//     guarantees coverage); a member that grows the union triggers a
//     structure rebuild from the grown union (counted in
//     StreamStats.StructRebuilds). This is the online face of CLUDE:
//     the offline variant orders by the retrospective union of a closed
//     cluster, which a live engine cannot know.

// ErrStreamClosed reports an Apply on a closed stream.
var ErrStreamClosed = errors.New("core: stream closed")

// ErrReplayGap reports a ReplayBatch whose sequence number does not
// directly follow the stream's: the log is missing records the
// snapshot does not cover, which torn-tail truncation can never cause.
var ErrReplayGap = errors.New("core: replay gap")

// StreamConfig configures a live streaming engine.
type StreamConfig struct {
	// Algorithm is the maintenance strategy (BF, INC, CINC or CLUDE).
	Algorithm Algorithm
	// Alpha is the α-clustering threshold for CINC/CLUDE.
	Alpha float64
	// Initial is the version-0 graph the stream starts from (required;
	// use an edgeless graph to start cold).
	Initial *graph.Graph
	// Derive turns each graph state into the matrix whose factors the
	// stream maintains (required).
	Derive graph.Deriver
	// OnPublish, when non-nil, is invoked once for every version that is
	// committed (including version 0 during NewStream, and each batch
	// ReplayBatch re-applies) while the stream's update lock is held: the
	// solver is frozen for the duration of the callback and updated in
	// place afterwards, exactly like Options.OnFactors without
	// RetainFactors. Callers that retain must Clone; callers that serve
	// live traffic should instead read through View and leave this
	// callback for notifications and retention. The callback must not
	// call back into the Stream.
	//
	// rec is the version's history record: its number, and the validated
	// Bennett rank-1 term sequence that turned the previous version's
	// factors into this one's, or a structural marker when the step
	// rebuilt or refactorized (ordering/structure/values changed outside
	// the rank-1 algebra, so no replayable delta exists; version 0 and
	// every cluster restart are structural). The record and its term
	// slices are immutable — callers may retain them without copying.
	// This is the feed of the delta-compressed history layers
	// (bennett.HistoryLog in serve, the history file in store).
	OnPublish func(s *lu.Solver, rec bennett.VersionRecord)
	// LogBatch, when non-nil, is the write-ahead hook: it is invoked
	// for every validated batch before any state mutates, with the
	// batch's sequence number (1-based, monotone across the stream's
	// life, counting every validated batch whether or not its
	// strategy step later succeeds). An error aborts the batch with
	// the stream untouched — the durability contract of the store
	// layer: no state change is ever visible that is not logged first.
	// ReplayBatch skips this hook (its batches are already durable).
	LogBatch func(seq uint64, events []graph.EdgeEvent) error
	// OnStage, when non-nil, receives the duration of each ingest
	// pipeline stage per committed batch: "validate" (batch
	// validation), "log" (the LogBatch hook, observed only when it
	// runs), "apply" (graph mutation + derive + strategy step) and
	// "publish" (version bump + OnPublish). Between "log" and "apply" it
	// also receives the apply stage's own split, the parts a batch went
	// through in order: PartDelta, then PartUpdate or PartOrder +
	// PartFactorize (a failed update that refactorizes has all but
	// PartOrder); the parts add up to "apply". It is called under the
	// stream's write lock and must be fast and non-blocking — its
	// intended use is feeding metrics histograms. The hook keeps this
	// package import-clean of any metrics implementation.
	OnStage func(stage string, d time.Duration)
	// OnBatch, when non-nil, receives one BatchTrace per consumed
	// batch — successes after publish, failures on their error path —
	// so a tracing layer can reconstruct the batch as a span tree
	// without this package importing a tracer. Like OnStage it is
	// called under the stream's write lock and must be fast; unlike
	// OnStage it fires exactly once per Apply/ReplayBatch call that
	// got past the closed check, with the error included.
	OnBatch func(bt BatchTrace)
}

// The parts of the apply stage, as OnStage names them.
const (
	// PartDelta is everything before the factors are touched: the graph
	// mutation, ∆A from the dirty columns, cluster admission — and, on a
	// batch that rebuilds, materializing the matrix.
	PartDelta = "apply/delta"
	// PartUpdate is the Bennett update.
	PartUpdate = "apply/update"
	// PartOrder is the ordering with its symbolic structure.
	PartOrder = "apply/order"
	// PartFactorize is building the container and the full numeric
	// decomposition.
	PartFactorize = "apply/factorize"
)

// StageSample is one named, timed ingest stage inside a BatchTrace.
// Stages are contiguous: each starts where the previous ended.
type StageSample struct {
	Name string
	D    time.Duration
}

// BatchTrace describes one consumed ingest batch for the OnBatch
// hook: what arrived, what it did, how long each pipeline stage took,
// and how it ended. A zero-Name stage slot means the pipeline never
// reached that stage (an earlier stage failed).
type BatchTrace struct {
	// Seq is the stream's WAL sequence after the batch: the batch's
	// own sequence number when it validated (validation failures do
	// not consume one).
	Seq uint64
	// Version is the published version; 0 when the batch failed.
	Version uint64
	// Events is the batch size; Applied how many events changed the
	// edge set.
	Events  int
	Applied int
	// Structural marks a batch whose strategy step rebuilt or
	// refactorized instead of a rank-1 update.
	Structural bool
	// Start is when the batch entered the pipeline.
	Start time.Time
	// Err is the batch's outcome.
	Err error
	// Stages holds validate / log / apply / publish, in order.
	Stages [4]StageSample
}

// StreamStats is a point-in-time snapshot of a stream's counters.
type StreamStats struct {
	Version       uint64 `json:"version"`
	Batches       int    `json:"batches"`
	Events        int    `json:"events"`
	EventsApplied int    `json:"events_applied"` // events that changed the edge set
	Clusters      int    `json:"clusters"`       // clusters opened (BF: one per version)
	// StructRebuilds counts CLUDE structure rebuilds forced by cluster
	// members growing the running union past the current USSP.
	StructRebuilds int `json:"struct_rebuilds"`
	// Refactorizations counts numerical fallbacks (failed Bennett
	// updates answered by a full refactorization in the same ordering).
	Refactorizations int `json:"refactorizations"`

	Bennett          bennett.Stats `json:"-"`
	DynamicInserts   int           `json:"dynamic_inserts"`
	DynamicScanSteps int           `json:"dynamic_scan_steps"`
}

// Stream maintains LU factors of a deriver's matrix over a live edge
// stream. All methods are safe for concurrent use: Apply serializes
// writers, View/Version/Stats take the read side, so a serving layer
// reads the latest factors lock-cheap while batches commit between
// queries.
type Stream struct {
	cfg StreamConfig

	mu      sync.RWMutex
	closed  bool
	version uint64
	seq     uint64 // validated batches consumed (the WAL sequence number)
	builder *graph.Builder
	tracker *cluster.Tracker // CINC/CLUDE membership

	ord            sparse.Ordering
	rowInv, colInv sparse.Perm
	static         *lu.StaticFactors
	dyn            *lu.DynamicFactors // INC/CINC container; nil for BF/CLUDE
	solver         *lu.Solver
	structUnion    *sparse.Pattern // CLUDE: union the current USSP was built from

	luWS  lu.Workspace
	benWS bennett.Workspace
	delta deltaScratch
	lapT0 time.Time // start of the apply part being timed (OnStage only)

	// rebased marks factors refilled outside a published step (a failed
	// batch's recovery): they are no longer the previous record's values
	// plus rank-1 terms, so the next record cannot be a delta either.
	rebased bool

	// stepTerms/stepStructural describe how the factors reached the
	// version about to be published: the split rank-1 terms of a
	// successful Bennett update, or a structural marker for every
	// rebuild/refactorization path. publishLocked turns them into the
	// OnPublish record.
	stepTerms      []bennett.Rank1Term
	stepStructural bool

	stats                   StreamStats
	retiredIns, retiredScan int // counters of retired dynamic containers
}

// NewStream factors the initial graph (version 0) and returns a ready
// stream. Version 0 is published before NewStream returns.
func NewStream(cfg StreamConfig) (*Stream, error) {
	switch cfg.Algorithm {
	case BF, INC, CINC, CLUDE:
	default:
		return nil, fmt.Errorf("core: unknown streaming algorithm %q", cfg.Algorithm)
	}
	if cfg.Initial == nil || cfg.Derive == nil {
		return nil, errors.New("core: StreamConfig needs Initial and Derive")
	}
	s := &Stream{cfg: cfg, builder: graph.NewBuilderFrom(cfg.Initial)}
	if cfg.Algorithm == CINC || cfg.Algorithm == CLUDE {
		if cfg.Alpha < 0 || cfg.Alpha > 1 {
			return nil, fmt.Errorf("core: alpha %v outside [0,1]", cfg.Alpha)
		}
		s.tracker = cluster.NewTracker(cfg.Alpha)
	}
	a := graph.Derive(cfg.Derive, cfg.Initial)
	if s.tracker != nil {
		s.tracker.Admit(a.Pattern())
	}
	s.stats.Clusters = 1
	if err := s.rebuild(a, a.Pattern()); err != nil {
		return nil, fmt.Errorf("core: %s initial factorization: %w", cfg.Algorithm, err)
	}
	s.publishLocked()
	return s, nil
}

// Apply commits one delta batch: the events advance the live graph, the
// strategy brings the factors to the new state, and the result is
// published as the next version. A failed batch (malformed events or an
// unrecoverable factorization error) leaves the version, the graph and
// every counter but the sequence number unchanged.
// Empty batches are legal and publish a new version over an unchanged
// matrix. Apply blocks while queries hold the read side (View) — that
// is the engine's natural backpressure.
func (s *Stream) Apply(events []graph.EdgeEvent) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	return s.applyLocked(events, true)
}

// ReplayBatch re-applies a batch previously handed to LogBatch — the
// recovery path. It behaves exactly like Apply except that the LogBatch
// hook is skipped (the batch is already durable) and the batch must
// land at the stream's next sequence number: batches at or below the
// current sequence are silently skipped (the snapshot already covers
// them), a gap is an error. Replaying the logged batch sequence into a
// restored stream therefore reproduces the original run's state
// transitions bit for bit, including deterministic step failures (which
// consume the sequence number without publishing, exactly as they did
// live).
func (s *Stream) ReplayBatch(seq uint64, events []graph.EdgeEvent) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStreamClosed
	}
	if seq <= s.seq {
		return s.version, nil
	}
	if seq != s.seq+1 {
		return 0, fmt.Errorf("%w: record seq %d, stream at %d", ErrReplayGap, seq, s.seq)
	}
	return s.applyLocked(events, false)
}

// Seq returns the number of validated batches the stream has consumed
// (the sequence number of the last logged batch).
func (s *Stream) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// applyLocked is the shared commit path of Apply and ReplayBatch.
// Callers hold the write lock. Stage timers run only when an OnStage
// hook is installed, so the unobserved pipeline pays no clock reads.
func (s *Stream) applyLocked(events []graph.EdgeEvent, logIt bool) (v uint64, err error) {
	var t0 time.Time
	traced := s.cfg.OnStage != nil
	batched := s.cfg.OnBatch != nil
	var bt BatchTrace
	nstage := 0
	stage := func(name string) {
		if !traced && !batched {
			return
		}
		now := time.Now()
		if traced {
			s.cfg.OnStage(name, now.Sub(t0))
		}
		if batched && nstage < len(bt.Stages) {
			bt.Stages[nstage] = StageSample{Name: name, D: now.Sub(t0)}
			nstage++
		}
		t0 = now
	}
	if traced || batched {
		t0 = time.Now()
	}
	if batched {
		bt.Start = t0
		bt.Events = len(events)
		// Emitted on every exit — error paths included — so the hook
		// sees exactly one BatchTrace per consumed batch.
		defer func() {
			bt.Seq = s.seq
			bt.Err = err
			if err == nil {
				bt.Version = s.version
			}
			s.cfg.OnBatch(bt)
		}()
	}
	if err := s.builder.ValidateBatch(events); err != nil {
		return 0, err
	}
	stage("validate")
	if logIt && s.cfg.LogBatch != nil {
		if err := s.cfg.LogBatch(s.seq+1, events); err != nil {
			return 0, fmt.Errorf("core: %s batch log: %w", s.cfg.Algorithm, err)
		}
		stage("log")
	}
	s.seq++
	s.lapT0 = t0
	applied, _ := s.builder.ApplyBatch(events) // already validated
	stats := s.stats
	var admitted *cluster.TrackerState
	if s.tracker != nil {
		admitted = s.tracker.State()
	}
	if err := s.step(); err != nil {
		// Atomic failure: the factors still belong to the graph the batch
		// started from, so everything else goes back to it. The sequence
		// number stays consumed — WAL replay meets the same failure.
		s.builder.Undo()
		s.stats = stats
		if s.tracker != nil {
			s.tracker.Restore(admitted)
		}
		return 0, err
	}
	s.stats.Batches++
	s.stats.Events += len(events)
	s.stats.EventsApplied += applied
	stage("apply")
	bt.Applied, bt.Structural = applied, s.stepStructural
	s.version++
	s.stats.Version = s.version
	s.publishLocked()
	stage("publish")
	return s.version, nil
}

// lap reports the time since the previous lap (or the apply stage's
// start) as one part of the apply split. Version 0 is not a batch: its
// rebuild runs before any lap clock was started and reports nothing.
func (s *Stream) lap(part string) {
	if s.cfg.OnStage == nil || s.lapT0.IsZero() {
		return
	}
	now := time.Now()
	s.cfg.OnStage(part, now.Sub(s.lapT0))
	s.lapT0 = now
}

// current materializes the matrix of the builder's graph — what only a
// rebuild, a refactorization and an export need whole.
func (s *Stream) current() *sparse.CSR { return graph.Derive(s.cfg.Derive, s.builder) }

// step routes the batch the builder just applied through the configured
// strategy.
func (s *Stream) step() error {
	if s.cfg.Algorithm == BF {
		s.stats.Clusters++
		cur := s.current()
		return s.rebuild(cur, cur.Pattern())
	}
	d := s.batchDelta()
	if s.cfg.Algorithm == INC {
		return s.update(d.entries)
	}
	var cur *sparse.CSR // materialized only when the batch opens a cluster
	member := func() *sparse.Pattern {
		cur = s.current()
		return cur.Pattern()
	}
	if !s.tracker.AdmitDelta(d.added, d.removed, member) {
		// A fresh cluster's union is its first member.
		s.stats.Clusters++
		return s.rebuild(cur, cur.Pattern())
	}
	if s.cfg.Algorithm == CLUDE && !d.addedWithin(s.structUnion) {
		// The member grew the cluster union past the USSP the static
		// container was built from (the previous member was inside it, so
		// the added positions decide): re-derive the ordering from the
		// grown union and refactorize into the larger structure.
		s.stats.StructRebuilds++
		return s.rebuild(s.current(), s.tracker.Union())
	}
	return s.update(d.entries)
}

// deltaScratch holds one batch's ∆A and the buffers it is computed in,
// reused from batch to batch.
type deltaScratch struct {
	// entries is ∆A in the current ordering, row-major — what
	// sparse.Delta of the two whole matrices would list.
	entries []sparse.Entry
	// added and removed are the positions (unpermuted) that entered and
	// left the matrix pattern.
	added, removed []sparse.Coord

	dirty   []int
	isDirty []bool
	rows    [2][]int
	vals    [2][]float64
}

// batchDelta computes ∆A of the batch the builder just applied: the
// deriver names the columns the changed edges dirty, and each is
// evaluated on the graph before and after the batch and diffed entry by
// entry, with sparse.Delta's arithmetic. The result is valid until the
// next batch.
func (s *Stream) batchDelta() *deltaScratch {
	d, b, derive := &s.delta, s.builder, s.cfg.Derive
	if d.isDirty == nil {
		d.isDirty = make([]bool, b.N())
	}
	d.entries, d.added, d.removed, d.dirty = d.entries[:0], d.added[:0], d.removed[:0], d.dirty[:0]
	mark := func(col int) {
		if !d.isDirty[col] {
			d.isDirty[col] = true
			d.dirty = append(d.dirty, col)
		}
	}
	for _, ev := range b.Changed() {
		derive.Dirty(b, ev.From, ev.To, mark)
	}
	before := b.Before()
	for _, col := range d.dirty {
		d.isDirty[col] = false
		d.rows[0], d.vals[0] = derive.Column(before, col, d.rows[0][:0], d.vals[0][:0])
		d.rows[1], d.vals[1] = derive.Column(b, col, d.rows[1][:0], d.vals[1][:0])
		or, ov, nr, nv := d.rows[0], d.vals[0], d.rows[1], d.vals[1]
		pc := s.colInv[col]
		emit := func(row int, v float64) {
			if v != 0 {
				d.entries = append(d.entries, sparse.Entry{Row: s.rowInv[row], Col: pc, Val: v})
			}
		}
		for ko, kn := 0, 0; ko < len(or) || kn < len(nr); {
			switch {
			case kn >= len(nr) || (ko < len(or) && or[ko] < nr[kn]):
				d.removed = append(d.removed, sparse.Coord{Row: or[ko], Col: col})
				emit(or[ko], -ov[ko])
				ko++
			case ko >= len(or) || nr[kn] < or[ko]:
				d.added = append(d.added, sparse.Coord{Row: nr[kn], Col: col})
				emit(nr[kn], nv[kn])
				kn++
			default:
				emit(or[ko], nv[kn]-ov[ko])
				ko++
				kn++
			}
		}
	}
	slices.SortFunc(d.entries, func(a, b sparse.Entry) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	return d
}

// addedWithin reports whether every added position lies in p.
func (d *deltaScratch) addedWithin(p *sparse.Pattern) bool {
	for _, c := range d.added {
		if !p.Has(c.Row, c.Col) {
			return false
		}
	}
	return true
}

// rebuild opens fresh factors for cur: ordering from pat (cur's own
// pattern, or the running cluster union for CLUDE), the container from
// the structure that ordering's elimination produced, full numeric
// decomposition, and a fresh Solver (the old one stays valid for
// retained clones but is never mutated again). Nothing of the stream
// changes unless the decomposition succeeds.
func (s *Stream) rebuild(cur *sparse.CSR, pat *sparse.Pattern) error {
	s.lap(PartDelta)
	r := order.Markowitz(pat)
	s.lap(PartOrder)
	rowInv, colInv := r.Ordering.Row.Inverse(), r.Ordering.Col.Inverse()
	static := lu.NewStaticFactors(r.Symbolic)
	if err := static.FactorizeWith(cur.PermuteInv(r.Ordering, colInv), &s.luWS); err != nil {
		return fmt.Errorf("core: %s version %d: %w", s.cfg.Algorithm, s.version+1, err)
	}
	s.stepStructural, s.stepTerms = true, nil
	s.ord, s.rowInv, s.colInv, s.static = r.Ordering, rowInv, colInv, static
	if s.cfg.Algorithm == CLUDE {
		s.structUnion = pat
	}
	s.retireDyn()
	var fac lu.Factors = s.static
	if s.cfg.Algorithm == INC || s.cfg.Algorithm == CINC {
		s.dyn = lu.NewDynamicFactors(s.static)
		fac = s.dyn
	}
	s.solver = &lu.Solver{F: fac, O: s.ord}
	s.lap(PartFactorize)
	return nil
}

// update advances the current container by the Bennett delta, falling
// back to a full refactorization in the same ordering when the update
// fails numerically (mirroring the offline engine's refactorInPlace).
func (s *Stream) update(delta []sparse.Entry) error {
	// Split once: the terms applied here are the very slice the history
	// record carries (immutable from now on).
	terms := bennett.SplitTerms(delta)
	s.lap(PartDelta)
	var fac lu.Factors = s.static
	if s.dyn != nil {
		fac = s.dyn
	}
	err := s.benWS.ApplyTerms(fac, terms, &s.stats.Bennett)
	s.lap(PartUpdate)
	s.stepStructural, s.stepTerms = false, terms
	if err == nil {
		return nil
	}
	// Numerical fallback: the published values come from a full
	// refactorization, not the rank-1 algebra — no replayable delta.
	s.stepStructural, s.stepTerms = true, nil
	s.stats.Refactorizations++
	ferr := s.refactorize(s.current())
	s.lap(PartFactorize)
	if ferr == nil {
		return nil
	}
	// Both left the container half-written, and the published version
	// lives in it: refill it from the matrix the batch started from.
	s.rebased = true
	if rerr := s.refactorize(graph.Derive(s.cfg.Derive, s.builder.Before())); rerr != nil {
		return fmt.Errorf("core: %s version %d: update %v; refactorization %v; restoring version %d: %w", s.cfg.Algorithm, s.version+1, err, ferr, s.version, rerr)
	}
	return fmt.Errorf("core: %s version %d: update %v; refactorization %w", s.cfg.Algorithm, s.version+1, err, ferr)
}

// refactorize decomposes a (unpermuted) from scratch in the current
// ordering, into the container style of the algorithm.
func (s *Stream) refactorize(a *sparse.CSR) error {
	ap := a.PermuteInv(s.ord, s.colInv)
	if s.dyn == nil {
		// The USSP still covers the matrix; refill the same container.
		return s.static.FactorizeWith(ap, &s.luWS)
	}
	st := lu.NewStaticFactors(lu.Symbolic(ap.Pattern()))
	if err := st.FactorizeWith(ap, &s.luWS); err != nil {
		return err
	}
	s.retireDyn()
	s.dyn = lu.NewDynamicFactors(st)
	// The factor container changed identity, so the sparse solve
	// path's per-solver caches must not survive: fresh Solver.
	s.solver = &lu.Solver{F: s.dyn, O: s.ord}
	return nil
}

// retireDyn folds a replaced dynamic container's restructuring counters
// into the stream totals.
func (s *Stream) retireDyn() {
	if s.dyn != nil {
		s.retiredIns += s.dyn.Inserts
		s.retiredScan += s.dyn.ScanSteps
		s.dyn = nil
	}
}

// publishLocked fires OnPublish for the current version. Callers hold
// the write lock, so the solver is frozen for the callback's duration.
func (s *Stream) publishLocked() {
	if s.rebased {
		s.rebased, s.stepStructural, s.stepTerms = false, true, nil
	}
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(s.solver, bennett.VersionRecord{
			Version:    s.version,
			Structural: s.stepStructural,
			Terms:      s.stepTerms,
		})
	}
}

// View runs fn with the latest published version and its solver while
// holding the stream's read lock: the factors cannot advance while fn
// runs, so solves inside fn read a frozen, consistent state with zero
// copying. fn must not retain the solver past its return (Clone to
// retain) and must not call back into the stream. It returns false
// (without calling fn) only when the stream has no published state.
// This is the hot-publish path the serving layer attaches to.
func (s *Stream) View(fn func(version uint64, sv *lu.Solver)) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.solver == nil {
		return false
	}
	fn(s.version, s.solver)
	return true
}

// GraphSnapshot returns the latest published version together with an
// immutable snapshot of the graph at that version (Builder.Graph copies
// the list headers; the lists themselves are never written). Both are
// read under the same lock, so
// they are mutually consistent; callers may retain the graph
// indefinitely (graph-backed measures key cached answers by the
// returned version).
func (s *Stream) GraphSnapshot() (uint64, *graph.Graph) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version, s.builder.Graph()
}

// Version returns the latest published version.
func (s *Stream) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// N returns the vertex count of the streamed graph.
func (s *Stream) N() int { return s.builder.N() }

// Stats returns a snapshot of the stream's counters.
func (s *Stream) Stats() StreamStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.DynamicInserts = s.retiredIns
	st.DynamicScanSteps = s.retiredScan
	if s.dyn != nil {
		st.DynamicInserts += s.dyn.Inserts
		st.DynamicScanSteps += s.dyn.ScanSteps
	}
	return st
}

// Close marks the stream closed: further Apply calls fail with
// ErrStreamClosed, while View keeps serving the last published version
// (a drained server can keep answering queries after ingestion stops).
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Batcher groups a live event feed into versioned batches: events
// accumulate until the batch size cap or the linger delay is reached,
// then commit through Stream.Apply as one batch. One Batcher serializes
// its feed; concurrent Send calls are safe.
type Batcher struct {
	s     *Stream
	max   int
	delay time.Duration

	mu      sync.Mutex
	pending []graph.EdgeEvent
	timer   *time.Timer
	closed  bool
	err     error // first deferred (timer-flush) error, returned by the next call
}

// NewBatcher returns a batcher committing to s after maxEvents pending
// events (<= 0 means 256) or maxDelay of lingering (<= 0 disables the
// timer: flushes happen only on size or explicitly).
func (s *Stream) NewBatcher(maxEvents int, maxDelay time.Duration) *Batcher {
	if maxEvents <= 0 {
		maxEvents = 256
	}
	return &Batcher{s: s, max: maxEvents, delay: maxDelay}
}

// Send enqueues events, committing inline when the batch size cap is
// reached. The returned error is the inline commit's (or a deferred
// timer-flush error from an earlier batch, surfaced here).
func (b *Batcher) Send(events ...graph.EdgeEvent) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrStreamClosed
	}
	if err := b.takeErr(); err != nil {
		return err
	}
	b.pending = append(b.pending, events...)
	if len(b.pending) >= b.max {
		return b.flushLocked()
	}
	if b.timer == nil && b.delay > 0 && len(b.pending) > 0 {
		b.timer = time.AfterFunc(b.delay, b.timerFlush)
	}
	return nil
}

// Flush commits any pending events immediately and returns the stream's
// resulting version.
func (b *Batcher) Flush() (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return b.s.Version(), ErrStreamClosed
	}
	err := b.takeErr()
	if ferr := b.flushLocked(); err == nil {
		err = ferr
	}
	return b.s.Version(), err
}

// Pending returns the number of events waiting for the next commit.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Close drains pending events into one final batch and stops the
// batcher; further Send/Flush calls fail with ErrStreamClosed. This is
// the ingest-queue half of a graceful shutdown.
func (b *Batcher) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	err := b.takeErr()
	if ferr := b.flushLocked(); err == nil {
		err = ferr
	}
	b.closed = true
	return err
}

// takeErr returns and clears the deferred timer-flush error.
func (b *Batcher) takeErr() error {
	err := b.err
	b.err = nil
	return err
}

// timerFlush is the linger-delay commit.
func (b *Batcher) timerFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if err := b.flushLocked(); err != nil && b.err == nil {
		b.err = err
	}
}

// flushLocked commits the pending batch. Callers hold b.mu; the commit
// itself blocks on the stream's write lock, which is the backpressure
// path from in-flight queries to the feed.
func (b *Batcher) flushLocked() error {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if len(b.pending) == 0 {
		return nil
	}
	evs := b.pending
	b.pending = nil
	_, err := b.s.Apply(evs)
	return err
}
