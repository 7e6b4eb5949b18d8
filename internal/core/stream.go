package core

import (
	"errors"
	"fmt"
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
//	edge events ──▶ Batcher ──▶ Stream.Apply ──▶ CLUDE step ──▶ publish
//	                (grouping)   (graph.Builder,   (Bennett update  (version++,
//	                              dirty columns)    or rebuild)      live view)
//
// A batch costs what it changed: the builder reports the edges that
// really changed, the deriver names the matrix columns they dirty, and
// ∆A is those columns before against after — the whole matrix is
// materialized only when a step rebuilds or refactorizes. The invariant
// underneath is that the factors always belong to the deriver's matrix
// of the builder's graph in the current ordering, which is why a batch
// whose step fails is taken back whole (graph, tracker, counters).
//
// The stream maintains CLUDE in its online form. α-cluster membership
// is tracked incrementally (cluster.Tracker): a batch whose matrix falls
// below the threshold opens a fresh cluster. Within a cluster one static
// USSP container, built from the *running* cluster union, holds the
// factors. A member whose pattern stays inside the union the container
// was built from updates in place by Bennett (Theorem 1 guarantees
// coverage). A member that grows the union keeps the cluster's ordering
// while the grown union's fill stays within (1 + KeptOrderBeta) of the
// fill at the last fresh ordering — LUDEM-QC's β rule with the last
// fresh ordering's fill as its reference: the symbolic structure grows
// by an incremental closure, the factors move into the larger container
// unchanged and ∆A is applied by Bennett (StreamStats.KeptGrowths).
// Past the bound the grown union is re-ordered and refactorized
// (StreamStats.StructRebuilds). The offline CLUDE of Run orders by the
// retrospective union of a closed cluster, which a live engine cannot
// know. The paper's baselines (BF, INC, CINC) run in Run only.

// ErrStreamClosed reports an Apply on a closed stream.
var ErrStreamClosed = errors.New("core: stream closed")

// ErrReplayGap reports a ReplayBatch whose sequence number does not
// directly follow the stream's: the log is missing records the
// snapshot does not cover, which torn-tail truncation can never cause.
var ErrReplayGap = errors.New("core: replay gap")

// StreamConfig configures a live streaming engine.
type StreamConfig struct {
	// Alpha is CLUDE's α-clustering threshold, in [0, 1].
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
	// place afterwards, exactly like Options.OnFactors. Callers that
	// retain must Clone; callers that serve live traffic should instead
	// read through View and leave this callback for notifications and
	// retention. The callback must not
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
	// OnBatch, when non-nil, receives one BatchTrace per consumed batch —
	// successes after publish, failures on their error path — carrying
	// how long each pipeline stage and each part of the apply stage
	// took, so metrics histograms and a tracing layer can both be fed
	// without this package importing either. It fires exactly once per
	// Apply/ReplayBatch call that got past the closed check, with the
	// error included, under the stream's write lock: it must be fast
	// and non-blocking. The stage clocks run only when it is installed.
	OnBatch func(bt BatchTrace)
}

// KeptOrderBeta is the β of the stream's kept-order rule: a batch that
// grows the cluster union keeps the cluster's ordering while the grown
// union's symbolic size stays within (1 + KeptOrderBeta) of the size at
// the last fresh ordering (StreamStats.RefFill). It was set by
// measurement, against the exact rule (a fresh ordering of every grown
// union) and the rebuilds each β saves: docs/PERFORMANCE.md, "Kept
// ordering through growth".
const KeptOrderBeta = 0.1

// The parts of the apply stage, as BatchTrace.Parts names them.
const (
	// PartDelta is everything before the factors are touched: the graph
	// mutation, ∆A from the dirty columns, cluster admission — and, on a
	// batch that rebuilds, materializing the matrix.
	PartDelta = "apply/delta"
	// PartUpdate is the Bennett update.
	PartUpdate = "apply/update"
	// PartOrder is the ordering with its symbolic structure: Markowitz on
	// a rebuild, the incremental closure and the β rule on a batch that
	// grows the union.
	PartOrder = "apply/order"
	// PartFactorize is building the container and the full numeric
	// decomposition — on a kept-order growth, building the grown
	// container and moving the factors into it.
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
	// Stages holds, in order, "validate" (batch validation), "log" (the
	// LogBatch hook, only when it runs), "apply" (graph mutation, ∆A and
	// the strategy step) and "publish" (version bump + OnPublish).
	Stages [4]StageSample
	// Parts splits the apply stage into the parts the batch went through,
	// in order: PartDelta, then PartUpdate (a toggle), PartOrder +
	// PartFactorize (a rebuild) or PartOrder + PartFactorize + PartUpdate
	// (a kept-order growth; PartOrder + PartUpdate when its new positions
	// fell on fill). A failed update that refactorizes adds its time to
	// PartFactorize, appending it if the batch had none. They add up to
	// "apply" — on a batch whose step failed, to what of it ran.
	Parts [4]StageSample
}

// StreamStats is a point-in-time snapshot of a stream's counters.
type StreamStats struct {
	Version       uint64 `json:"version"`
	Batches       int    `json:"batches"`
	Events        int    `json:"events"`
	EventsApplied int    `json:"events_applied"` // events that changed the edge set
	// Clusters counts the clusters opened: the tracker's count, read off
	// it by Stats (0 in a StreamState, which holds the tracker).
	Clusters int `json:"clusters"`
	// StructRebuilds counts fresh orderings of a grown union: cluster
	// members growing the running union past the current USSP whose
	// kept-order fill broke the β rule.
	StructRebuilds int `json:"struct_rebuilds"`
	// KeptGrowths counts members that grew the union and kept the
	// cluster's ordering: grown structure, factors moved, Bennett update.
	KeptGrowths int `json:"kept_growths"`
	// Refactorizations counts numerical fallbacks (failed Bennett
	// updates answered by a full refactorization in the same ordering).
	Refactorizations int `json:"refactorizations"`
	// RefFill is the container's symbolic size |s̃p| at the cluster's
	// last fresh ordering: the β rule keeps an ordering while the grown
	// size ≤ (1 + KeptOrderBeta)·RefFill. Fill is the current
	// container's size, read off it by Stats (0 in a StreamState, which
	// holds the container itself).
	RefFill int `json:"ref_fill"`
	Fill    int `json:"fill"`

	Bennett bennett.Stats `json:"-"`
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
	// tracker is the α-cluster membership, and its union the one the
	// current container was built from: a batch either stays inside it,
	// grows it into the container, or rebuilds the container from the
	// grown union.
	tracker *cluster.Tracker

	c chain // the current cluster's factor chain

	luWS     lu.Workspace
	benWS    bennett.Workspace
	delta    sparse.StepDelta     // the batch's ∆A, unpermuted (graph.BatchDelta)
	deltaWS  graph.DeltaWorkspace // its scratch
	permuted []sparse.Entry       // ∆A in the current ordering
	grown    []sparse.Coord       // a growth's new positions in the current ordering
	bt       BatchTrace           // the batch being traced (OnBatch only)
	lapT0    time.Time            // start of the apply part being timed (OnBatch only)

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

	stats StreamStats
}

// NewStream factors the initial graph (version 0) and returns a ready
// stream. Version 0 is published before NewStream returns.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Initial == nil || cfg.Derive == nil {
		return nil, errors.New("core: StreamConfig needs Initial and Derive")
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("core: alpha %v outside [0,1]", cfg.Alpha)
	}
	s := &Stream{cfg: cfg, builder: graph.NewBuilderFrom(cfg.Initial), tracker: cluster.NewTracker(cfg.Alpha)}
	a := graph.Derive(cfg.Derive, cfg.Initial)
	s.tracker.Admit(a.Pattern())
	if err := s.rebuild(a, a.Pattern()); err != nil {
		return nil, fmt.Errorf("core: CLUDE initial factorization: %w", err)
	}
	s.publishLocked()
	return s, nil
}

// Apply commits one delta batch: the events advance the live graph, the
// CLUDE step brings the factors to the new state, and the result is
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
// Callers hold the write lock. Stage timers run only when an OnBatch
// hook is installed, so the unobserved pipeline pays no clock reads.
func (s *Stream) applyLocked(events []graph.EdgeEvent, logIt bool) (v uint64, err error) {
	var t0 time.Time
	traced := s.cfg.OnBatch != nil
	nstage := 0
	stage := func(name string) {
		if !traced {
			return
		}
		now := time.Now()
		s.bt.Stages[nstage] = StageSample{Name: name, D: now.Sub(t0)}
		nstage++
		t0 = now
	}
	if traced {
		t0 = time.Now()
		s.bt = BatchTrace{Start: t0, Events: len(events)}
		// Emitted on every exit — error paths included — so the hook
		// sees exactly one BatchTrace per consumed batch.
		defer func() {
			s.bt.Seq = s.seq
			s.bt.Err = err
			if err == nil {
				s.bt.Version = s.version
			}
			s.cfg.OnBatch(s.bt)
		}()
	}
	if err := s.builder.ValidateBatch(events); err != nil {
		return 0, err
	}
	stage("validate")
	if logIt && s.cfg.LogBatch != nil {
		if err := s.cfg.LogBatch(s.seq+1, events); err != nil {
			return 0, fmt.Errorf("core: CLUDE batch log: %w", err)
		}
		stage("log")
	}
	s.seq++
	s.lapT0 = t0
	applied, _ := s.builder.ApplyBatch(events) // already validated
	stats, admitted := s.stats, s.tracker.State()
	if err := s.step(); err != nil {
		// Atomic failure: the factors still belong to the graph the batch
		// started from, so everything else goes back to it. The sequence
		// number stays consumed — WAL replay meets the same failure.
		s.builder.Undo()
		s.stats = stats
		s.tracker.Restore(admitted)
		return 0, err
	}
	s.stats.Batches++
	s.stats.Events += len(events)
	s.stats.EventsApplied += applied
	stage("apply")
	s.bt.Applied, s.bt.Structural = applied, s.stepStructural
	s.version++
	s.stats.Version = s.version
	s.publishLocked()
	stage("publish")
	return s.version, nil
}

// lap records the time since the previous lap (or the apply stage's
// start) as the batch's next part of the apply split, or adds it to the
// part of that name if the batch already has one. Version 0 is not
// a batch: its rebuild runs before any lap clock was started and
// records nothing.
func (s *Stream) lap(part string) {
	if s.lapT0.IsZero() {
		return
	}
	now := time.Now()
	for i := range s.bt.Parts {
		if p := &s.bt.Parts[i]; p.Name == "" || p.Name == part {
			p.Name, p.D = part, p.D+now.Sub(s.lapT0)
			break
		}
	}
	s.lapT0 = now
}

// current materializes the matrix of the builder's graph — what only a
// rebuild and a refactorization need whole.
func (s *Stream) current() *sparse.CSR { return graph.Derive(s.cfg.Derive, s.builder) }

// step brings the factors to the batch the builder just applied: a
// Bennett update inside the current USSP, a kept-order growth when the
// batch grows the union within the β rule, or a rebuild when the batch
// opens a cluster or grows the union past the rule.
func (s *Stream) step() error {
	d := &s.delta
	graph.BatchDelta(d, s.cfg.Derive, s.builder, &s.deltaWS)
	var cur *sparse.CSR // materialized only when the batch opens a cluster
	member := func() *sparse.Pattern {
		cur = s.current()
		return cur.Pattern()
	}
	// Patterns are immutable: admission replaces the union, so this is
	// the union the container was built from.
	built := s.tracker.Union()
	if !s.tracker.AdmitDelta(d.Added, d.Removed, member) {
		// A fresh cluster's union is its first member.
		return s.rebuild(cur, cur.Pattern())
	}
	s.permuted = sparse.PermuteEntries(s.permuted[:0], d.Entries, s.c.rowInv, s.c.colInv)
	if addedWithin(d.Added, built) {
		return s.update(s.permuted)
	}
	// The member grew the cluster union past the USSP the static
	// container was built from (the previous member was inside it, so
	// the added positions decide): grow the structure in the kept
	// ordering, or re-derive the ordering from the grown union and
	// refactorize into the larger structure.
	if kept, err := s.grow(d.Added, built); kept {
		return err
	}
	s.stats.StructRebuilds++
	return s.rebuild(s.current(), s.tracker.Union())
}

// addedWithin reports whether every added position lies in p.
func addedWithin(added []sparse.Coord, p *sparse.Pattern) bool {
	for _, c := range added {
		if !p.Has(c.Row, c.Col) {
			return false
		}
	}
	return true
}

// rebuild opens a fresh chain for cur: ordering from pat (the running
// cluster union, which is cur's own pattern when a cluster opens), the
// container from
// the structure that ordering's elimination produced, full numeric
// decomposition, and a fresh Solver (the old one stays valid for
// retained clones but is never mutated again). Nothing of the stream
// changes unless the decomposition succeeds.
func (s *Stream) rebuild(cur *sparse.CSR, pat *sparse.Pattern) error {
	s.lap(PartDelta)
	r := order.Markowitz(pat)
	s.lap(PartOrder)
	next := newChain(r.Ordering)
	if err := next.open(r.Symbolic, cur, false, &s.luWS); err != nil {
		return fmt.Errorf("core: CLUDE version %d: %w", s.version+1, err)
	}
	s.stepStructural, s.stepTerms = true, nil
	s.c = next
	s.stats.RefFill = next.static.Size()
	s.lap(PartFactorize)
	return nil
}

// grow is the kept-order growth: the batch's added positions (original
// indices; those already in built, the union the container was built
// from, add nothing) grow the container's structure by an incremental
// closure in the chain's ordering, and if the grown size passes the β
// rule, ∆A (s.permuted) is applied by Bennett — in a container of the
// grown structure (growInto), or in the live one if the closure already
// held every new position. It reports false, having changed nothing,
// when the rule fails; once kept, the step's outcome is the error.
func (s *Stream) grow(added []sparse.Coord, built *sparse.Pattern) (bool, error) {
	s.lap(PartDelta)
	coords := s.grown[:0]
	for _, c := range added {
		if !built.Has(c.Row, c.Col) {
			coords = append(coords, sparse.Coord{Row: s.c.rowInv[c.Row], Col: s.c.colInv[c.Col]})
		}
	}
	s.grown = coords
	sym := s.c.static.Structure().Grow(coords)
	size := sym.Size()
	s.lap(PartOrder)
	if float64(size)/float64(s.stats.RefFill) > 1+KeptOrderBeta {
		return false, nil
	}
	var err error
	if size == s.c.static.Size() {
		// The new positions fell on fill: the live container takes the
		// batch as it takes a toggle.
		err = s.update(s.permuted)
	} else {
		err = s.growInto(sym)
	}
	if err != nil {
		return true, err
	}
	s.stats.KeptGrowths++
	return true, nil
}

// growInto moves the factors into a container of the grown structure
// sym and applies ∆A there by Bennett, refactorizing in it when the
// update fails. The live container is never written, so a step that
// fails leaves it as it was, and a new Solver is published (retained
// clones keep the old one).
func (s *Stream) growInto(sym *lu.SymbolicLU) error {
	next := s.c
	next.static = s.c.static.Grown(sym)
	next.solver = &lu.Solver{F: next.static, O: next.ord}
	s.lap(PartFactorize)
	err := next.apply(bennett.SplitTerms(s.permuted), &s.benWS, &s.stats.Bennett)
	s.lap(PartUpdate)
	// The history replays a record's terms onto the previous version's
	// factors, whose structure this version no longer has.
	s.stepStructural, s.stepTerms = true, nil
	if err != nil {
		s.stats.Refactorizations++
		ferr := next.refactor(s.current(), &s.luWS)
		s.lap(PartFactorize)
		if ferr != nil {
			return fmt.Errorf("core: CLUDE version %d: update %v; refactorization %w", s.version+1, err, ferr)
		}
	}
	s.c = next
	return nil
}

// update advances the chain by the Bennett delta, falling back to a
// full refactorization in the same ordering when the update fails
// numerically.
func (s *Stream) update(delta []sparse.Entry) error {
	// Split once: the terms applied here are the very slice the history
	// record carries (immutable from now on).
	terms := bennett.SplitTerms(delta)
	s.lap(PartDelta)
	err := s.c.apply(terms, &s.benWS, &s.stats.Bennett)
	s.lap(PartUpdate)
	s.stepStructural, s.stepTerms = false, terms
	if err == nil {
		return nil
	}
	return s.refill(err)
}

// refill is the numerical fallback of a Bennett update err that failed
// on the live container: the published values come from a full
// refactorization in the same ordering, not the rank-1 algebra — no
// replayable delta. If that fails too, the container, which the
// published version lives in, is refilled from the matrix the batch
// started from and the step fails.
func (s *Stream) refill(err error) error {
	s.stepStructural, s.stepTerms = true, nil
	s.stats.Refactorizations++
	ferr := s.c.refactor(s.current(), &s.luWS)
	s.lap(PartFactorize)
	if ferr == nil {
		return nil
	}
	s.rebased = true
	if rerr := s.c.refactor(graph.Derive(s.cfg.Derive, s.builder.Before()), &s.luWS); rerr != nil {
		return fmt.Errorf("core: CLUDE version %d: update %v; refactorization %v; restoring version %d: %w", s.version+1, err, ferr, s.version, rerr)
	}
	return fmt.Errorf("core: CLUDE version %d: update %v; refactorization %w", s.version+1, err, ferr)
}

// publishLocked fires OnPublish for the current version. Callers hold
// the write lock, so the solver is frozen for the callback's duration.
func (s *Stream) publishLocked() {
	if s.rebased {
		s.rebased, s.stepStructural, s.stepTerms = false, true, nil
	}
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(s.c.solver, bennett.VersionRecord{
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
	if s.c.solver == nil {
		return false
	}
	fn(s.version, s.c.solver)
	return true
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
	st.Clusters = s.tracker.Clusters()
	st.Fill = s.c.static.Size()
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
