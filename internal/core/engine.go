package core

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
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

// This file is the execution engine behind Run and RunQC. Every LUDEM
// algorithm is expressed as the same four-stage pipeline:
//
//	planner      →  jobs (one per cluster; t_c)
//	orderStage   →  cluster ordering and, with it, its symbolic structure (t_M)
//	factorStage  →  full LU of the first member (t_d; symbolic too when the
//	                ordering was given, not computed)
//	updateStage  →  Bennett chain across the rest of the cluster (t_B)
//
// The planner is the only algorithm-specific part: BF plans singleton
// clusters, INC one cluster covering the whole sequence, CINC/CLUDE
// α-clusters, and the QC variants β-clusters with their orderings
// already attached. Clusters are mutually independent, so jobs are
// dispatched to a bounded worker pool; an ordered-emission stage keeps
// the OnFactors callback contract (snapshot order i = First..T-1) intact
// under any worker count. Independence is also what Options.First rests
// on: a cluster nobody will read is planned but never dispatched.

// job is one independent unit of pipeline work: a cluster of
// consecutive matrices factored under one shared ordering.
type job struct {
	idx      int // position in cluster order
	cl       cluster.Cluster
	useUnion bool // ordering and USSP structure from the cluster union (CLUDE)
	hasOrd   bool // ord was precomputed by the planner (β-clustering)
	ord      sparse.Ordering
}

// plan is a planner's output: the error-message label, the job list in
// cluster order (jobs[k].cl.Start increasing, contiguous) and, for the
// planners whose clusters step, deltas[i] = A_i − A_{i−1} in the original
// indices (nil at i = 0 and for BF).
type plan struct {
	label  string
	jobs   []job
	deltas [][]sparse.Entry
}

// stepDeltas diffs every pair of consecutive matrices once, in the
// original indices, and keeps each step's value delta; visit, when
// non-nil, sees each step's whole delta (the pattern delta included)
// while it is current.
func stepDeltas(ems *graph.EMS, visit func(i int, d *sparse.StepDelta)) [][]sparse.Entry {
	deltas := make([][]sparse.Entry, ems.Len())
	var d sparse.StepDelta
	for i := 1; i < ems.Len(); i++ {
		d.Diff(ems.Matrices[i-1], ems.Matrices[i])
		deltas[i] = slices.Clone(d.Entries)
		if visit != nil {
			visit(i, &d)
		}
	}
	return deltas
}

// planner is the clustering stage. Its cost is reported as t_c.
type planner interface {
	plan(e *engine) (plan, error)
}

// bfPlanner plans BF: every matrix is its own singleton cluster with
// its own Markowitz ordering and full decomposition.
type bfPlanner struct{}

func (bfPlanner) plan(e *engine) (plan, error) {
	jobs := make([]job, e.ems.Len())
	for i := range jobs {
		jobs[i] = job{idx: i, cl: cluster.Cluster{Start: i, End: i + 1}}
	}
	return plan{label: "BF", jobs: jobs}, nil
}

// incPlanner plans INC: one cluster covering the whole EMS, ordered by
// its first matrix, updated through the dynamic container.
type incPlanner struct{}

func (incPlanner) plan(e *engine) (plan, error) {
	return plan{label: "INC", jobs: []job{
		{cl: cluster.Cluster{Start: 0, End: e.ems.Len()}},
	}, deltas: stepDeltas(e.ems, nil)}, nil
}

// alphaPlanner plans CINC (useUnion=false) and CLUDE (useUnion=true):
// α-clusters, ordered by the first member or the cluster union. The
// tracker admits each matrix by its step's pattern delta, so clustering
// costs what changed, not two whole patterns per step.
type alphaPlanner struct {
	label    string
	alpha    float64
	useUnion bool
}

func (p alphaPlanner) plan(e *engine) (plan, error) {
	ms := e.ems.Matrices
	tr := cluster.NewTracker(p.alpha)
	pl := plan{label: p.label}
	if len(ms) == 0 {
		return pl, nil
	}
	finish := func(cl cluster.Cluster) {
		pl.jobs = append(pl.jobs, job{idx: len(pl.jobs), cl: cl, useUnion: p.useUnion})
	}
	tr.Admit(ms[0].Pattern())
	pl.deltas = stepDeltas(e.ems, func(i int, d *sparse.StepDelta) {
		if cl := tr.Cluster(); !tr.AdmitDelta(d.Added, d.Removed, ms[i].Pattern) {
			finish(cl)
		}
	})
	finish(tr.Cluster())
	return pl, nil
}

// betaPlanner plans the LUDEM-QC variants: β-clustering interleaves
// clustering with ordering runs (Algorithms 4–5), so the jobs come out
// with their orderings attached and t_M stays zero — the full cost is
// t_c, as the paper reports it.
type betaPlanner struct {
	label    string
	beta     float64
	useUnion bool
	star     []int
}

func (p betaPlanner) plan(e *engine) (plan, error) {
	pats := patterns(e.ems)
	var star func(i int, pat *sparse.Pattern) int
	if p.star != nil {
		star = cluster.StarTable(p.star)
	}
	var qcs []cluster.QCResult
	if p.useUnion {
		qcs = cluster.BetaCLUDE(pats, p.beta, star)
	} else {
		qcs = cluster.BetaCINC(pats, p.beta, star)
	}
	jobs := make([]job, len(qcs))
	for i, qc := range qcs {
		jobs[i] = job{idx: i, cl: qc.Cluster, useUnion: p.useUnion, hasOrd: true, ord: qc.Ordering}
	}
	return plan{label: p.label, jobs: jobs, deltas: stepDeltas(e.ems, nil)}, nil
}

// worker is the per-goroutine state of the pool: reusable scratch
// buffers so the hot path does not allocate, plus local counters that
// are merged into the Result once the pool drains (keeping the
// per-phase breakdown t_c/t_M/t_d/t_B correct across workers).
type worker struct {
	luWS  lu.Workspace
	benWS bennett.Workspace
	delta []sparse.Entry // the current step's ∆A in the cluster ordering

	times   PhaseTimes
	bstats  bennett.Stats
	refacts int
	dynIns  int
	dynScan int

	ack chan struct{} // emission acknowledgements (buffered 1)
}

// jobState threads one cluster through the per-cluster stages.
type jobState struct {
	job     job
	ord     sparse.Ordering
	sspSize int // |s̃p| of the stage-computed ordering (BF records it)
	// rowInv and colInv are the ordering's inverses, computed once per
	// cluster: they move a step's ∆A into the cluster's index space.
	rowInv, colInv sparse.Perm
	sym            *lu.SymbolicLU
	static         *lu.StaticFactors
	dyn            *lu.DynamicFactors
	fac            lu.Factors
	solver         *lu.Solver
}

// stage is one per-cluster pipeline phase.
type stage interface {
	run(e *engine, w *worker, st *jobState) error
}

// pipeline is the fixed per-cluster stage sequence shared by all
// algorithms.
var pipeline = []stage{orderStage{}, factorStage{}, updateStage{}}

// orderStage computes (or adopts) the cluster ordering — phase t_M.
type orderStage struct{}

func (orderStage) run(e *engine, w *worker, st *jobState) error {
	if st.job.hasOrd {
		st.ord = st.job.ord
	} else {
		t0 := time.Now()
		var r order.Result
		if st.job.useUnion {
			r = order.Markowitz(st.job.cl.Union) // O∪ = O*(A∪), Alg. 3 line 2
		} else {
			r = order.Markowitz(e.ems.Matrices[st.job.cl.Start].Pattern()) // O1 = O*(A1)
		}
		w.times.Ordering += time.Since(t0)
		// The elimination that chose the pivots also produced the
		// structure factorStage would otherwise recompute.
		st.ord, st.sspSize, st.sym = r.Ordering, r.SSPSize, r.Symbolic
	}
	st.rowInv, st.colInv = st.ord.Row.Inverse(), st.ord.Col.Inverse()
	e.orderings[st.job.idx] = st.ord
	if e.sspOut != nil && !st.job.hasOrd {
		e.sspOut[st.job.cl.Start] = st.sspSize
	}
	return e.ctx.Err()
}

// factorStage builds the factor container and fully decomposes the
// first cluster member into it — phase t_d — then emits snapshot
// cl.Start.
type factorStage struct{}

func (factorStage) run(e *engine, w *worker, st *jobState) error {
	cl := st.job.cl
	t1 := time.Now()
	first := e.ems.Matrices[cl.Start].PermuteInv(st.ord, st.colInv)
	switch {
	case st.sym != nil:
		// orderStage ordered this very pattern and kept its structure.
	case st.job.useUnion:
		// Symbolic decomposition of A∪^{O∪} gives the USSP; the static
		// structure built from it serves the whole cluster (Alg. 3
		// lines 3–4).
		st.sym = lu.Symbolic(cl.Union.Permute(st.ord))
	default:
		st.sym = lu.Symbolic(first.Pattern())
	}
	st.static = lu.NewStaticFactors(st.sym)
	if err := st.static.FactorizeWith(first, &w.luWS); err != nil {
		return fmt.Errorf("core: %s cluster %d (matrix %d): %w", e.label, st.job.idx, cl.Start, err)
	}
	st.fac = st.static
	if !st.job.useUnion && cl.Len() > 1 {
		// INC/CINC maintain the linked-list container across the
		// cluster; singleton clusters (and all of BF) never update, so
		// the static container serves directly.
		st.dyn = lu.NewDynamicFactors(st.static)
		st.fac = st.dyn
	}
	w.times.FullLU += time.Since(t1)

	st.solver = &lu.Solver{F: st.fac, O: st.ord}
	return e.emit(w, cl.Start, st.solver)
}

// updateStage walks the rest of the cluster with Bennett updates —
// phase t_B — emitting every snapshot, then records the cluster's
// structural bookkeeping. A step moves only the planner's ∆A into the
// cluster ordering; a whole matrix is permuted only to refactorize.
type updateStage struct{}

func (updateStage) run(e *engine, w *worker, st *jobState) error {
	cl := st.job.cl
	for i := cl.Start + 1; i < cl.End; i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		t2 := time.Now()
		w.delta = sparse.PermuteEntries(w.delta[:0], e.deltas[i], st.rowInv, st.colInv)
		var err error
		if st.job.useUnion {
			err = w.benWS.UpdateStatic(st.static, w.delta, &w.bstats)
		} else {
			err = w.benWS.UpdateDynamic(st.dyn, w.delta, &w.bstats)
		}
		w.times.Bennett += time.Since(t2)
		if err != nil {
			// Robustness fallback (never triggered by paper-like
			// workloads): refactorize from scratch in the same order.
			t3 := time.Now()
			cur := e.ems.Matrices[i].PermuteInv(st.ord, st.colInv)
			if ferr := refactorInPlace(&st.fac, &st.static, &st.dyn, cur, st.job.useUnion); ferr != nil {
				return fmt.Errorf("core: %s matrix %d: update %v; refactorization %w", e.label, i, err, ferr)
			}
			st.solver.F = st.fac
			w.refacts++
			w.times.FullLU += time.Since(t3)
		}
		if err := e.emit(w, i, st.solver); err != nil {
			return err
		}
	}
	if st.dyn != nil {
		w.dynIns += st.dyn.Inserts
		w.dynScan += st.dyn.ScanSteps
		e.structSizes[st.job.idx] = st.dyn.Size()
	} else {
		e.structSizes[st.job.idx] = st.static.Size()
	}
	return nil
}

// engine executes a plan's jobs over a bounded worker pool.
type engine struct {
	ems     *graph.EMS
	opt     Options
	label   string
	workers int

	ctx    context.Context
	cancel context.CancelFunc

	jobs        []job             // the clusters to run: the plan's, less those Options.First skips
	deltas      [][]sparse.Entry  // the plan's step deltas, read-only
	orderings   []sparse.Ordering // per planned cluster, written by its owning worker
	structSizes []int             // per planned cluster
	sspOut      []int             // per matrix; non-nil only for BF

	reqs    chan emitReq // nil when emission is inline (sequential or no callback)
	errOnce sync.Once
	err     error
}

// newEngine resolves the worker count (Workers <= 0 → GOMAXPROCS) and
// the cancellation context (nil → Background).
func newEngine(ems *graph.EMS, opt Options) *engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parent := opt.Context
	if parent == nil {
		parent = context.Background()
	}
	e := &engine{ems: ems, opt: opt, workers: workers}
	e.ctx, e.cancel = context.WithCancel(parent)
	return e
}

// fail records the first job error and cancels every other worker.
func (e *engine) fail(err error) {
	e.errOnce.Do(func() { e.err = err })
	e.cancel()
}

// runJob drives one cluster through the pipeline stages.
func (e *engine) runJob(w *worker, j job) error {
	st := &jobState{job: j}
	for _, s := range pipeline {
		if err := s.run(e, w, st); err != nil {
			return err
		}
	}
	return nil
}

// run executes the job list and merges the worker-local counters into
// res. It returns the first job error, or the context's error if the
// run was cancelled from outside.
func (e *engine) run(res *Result) error {
	nw := e.workers
	if nw > len(e.jobs) {
		nw = len(e.jobs)
	}
	if nw < 1 {
		nw = 1
	}

	// The ordered-emission stage is only needed when callbacks can be
	// produced out of order — i.e. a real pool and a real callback.
	var emitterWG sync.WaitGroup
	if e.opt.OnFactors != nil && nw > 1 {
		// Each worker has at most one emission in flight, so capacity
		// nw bounds both the channel and the reorder heap.
		e.reqs = make(chan emitReq, nw)
		emitterWG.Add(1)
		go func() {
			defer emitterWG.Done()
			e.emitLoop()
		}()
	}

	// Jobs are dispatched in cluster order over an unbuffered channel.
	// This guarantees the lowest incomplete cluster is always owned by
	// some worker, which is what makes the ordered-emission stage
	// deadlock-free: that owner's emissions are always next in line.
	jobs := make(chan job)
	var wg sync.WaitGroup
	workers := make([]*worker, nw)
	for wi := range workers {
		w := &worker{ack: make(chan struct{}, 1)}
		workers[wi] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if e.ctx.Err() != nil {
					return
				}
				if err := e.runJob(w, j); err != nil {
					e.fail(err)
					return
				}
			}
		}()
	}

feed:
	for _, j := range e.jobs {
		select {
		case jobs <- j:
		case <-e.ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if e.reqs != nil {
		close(e.reqs)
	}
	emitterWG.Wait()

	for _, w := range workers {
		res.Times.Ordering += w.times.Ordering
		res.Times.FullLU += w.times.FullLU
		res.Times.Bennett += w.times.Bennett
		res.Bennett.Add(w.bstats)
		res.Refactorizations += w.refacts
		res.DynamicInserts += w.dynIns
		res.DynamicScanSteps += w.dynScan
	}

	if e.err != nil {
		return e.err
	}
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("core: %s cancelled: %w", e.label, err)
	}
	return nil
}

// emitReq asks the emitter to fire OnFactors for snapshot i. The
// worker blocks until the emitter acknowledges, because the factors
// behind s are updated in place for the next snapshot the moment the
// callback returns.
type emitReq struct {
	i   int
	s   *lu.Solver
	ack chan struct{}
}

// reqHeap is a min-heap of pending emissions keyed by snapshot index.
type reqHeap []emitReq

func (h reqHeap) Len() int            { return len(h) }
func (h reqHeap) Less(i, j int) bool  { return h[i].i < h[j].i }
func (h reqHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *reqHeap) Push(x interface{}) { *h = append(*h, x.(emitReq)) }
func (h *reqHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// emit delivers snapshot i to the OnFactors callback in snapshot
// order. With no callback, or below Options.First (the head of the
// cluster that straddles it), it is only a cancellation check; with one
// worker the callback fires inline (the sequential path produces
// snapshots in order by construction).
func (e *engine) emit(w *worker, i int, s *lu.Solver) error {
	if e.opt.OnFactors == nil || i < e.opt.First {
		return e.ctx.Err()
	}
	if e.opt.RetainFactors {
		// The callback keeps this clone for good; cloning here (in the
		// worker, not the emitter) overlaps clone work across clusters.
		s = s.Clone()
	}
	if e.reqs == nil {
		e.opt.OnFactors(i, s)
		return e.ctx.Err()
	}
	select {
	case e.reqs <- emitReq{i: i, s: s, ack: w.ack}:
	case <-e.ctx.Done():
		return e.ctx.Err()
	}
	select {
	case <-w.ack:
		return e.ctx.Err()
	case <-e.ctx.Done():
		return e.ctx.Err()
	}
}

// emitLoop is the ordered-emission stage: it buffers out-of-order
// emissions in a min-heap (bounded by the worker count — each worker
// blocks on its previous emission) and fires the callback strictly in
// snapshot order First..T-1 from this single goroutine.
func (e *engine) emitLoop() {
	next := e.opt.First
	var pq reqHeap
	for r := range e.reqs {
		heap.Push(&pq, r)
		for pq.Len() > 0 && pq[0].i == next && e.ctx.Err() == nil {
			t := heap.Pop(&pq).(emitReq)
			e.opt.OnFactors(t.i, t.s)
			next++
			t.ack <- struct{}{}
		}
	}
	// Cancelled run: release whoever is still parked (acks are
	// buffered, so this never blocks even if the worker already left).
	for pq.Len() > 0 {
		heap.Pop(&pq).(emitReq).ack <- struct{}{}
	}
}

// execute is the shared driver behind Run and RunQC: plan (timed as
// t_c), execute over the pool, then assemble the Result.
func execute(ems *graph.EMS, alg Algorithm, opt Options, pl planner) (*Result, error) {
	// First = 0 stays legal on an empty sequence: it means "everything".
	if f := opt.First; f < 0 || (f > 0 && f >= ems.Len()) {
		return nil, fmt.Errorf("core: Options.First %d outside [0, %d)", f, ems.Len())
	}
	res := &Result{Algorithm: alg, T: ems.Len()}
	e := newEngine(ems, opt)
	defer e.cancel()

	start := time.Now()
	tc := time.Now()
	p, err := pl.plan(e)
	if err != nil {
		return nil, err
	}
	res.Times.Clustering = time.Since(tc)

	e.label, e.deltas = p.label, p.deltas
	// Jobs come in cluster order, so the clusters that end at or before
	// First are a prefix; the rest run exactly as they would have.
	e.jobs = p.jobs
	for len(e.jobs) > 0 && e.jobs[0].cl.End <= opt.First {
		e.jobs = e.jobs[1:]
	}
	e.orderings = make([]sparse.Ordering, len(p.jobs))
	e.structSizes = make([]int, len(p.jobs))
	if alg == BF {
		// BF's orderings come with |s̃p(A_i*)| for free; it is the
		// quality reference, so it always records them.
		res.SSPSizes = make([]int, ems.Len())
		e.sspOut = res.SSPSizes
	}

	if err := e.run(res); err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)

	res.Clusters = make([]cluster.Cluster, len(p.jobs))
	for i, j := range p.jobs {
		res.Clusters[i] = j.cl
	}
	res.StructureSizes = e.structSizes

	if opt.MeasureQuality && alg != BF {
		res.SSPSizes = measureQuality(e)
	}
	return res, nil
}
