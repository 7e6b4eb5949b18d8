package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
)

// This file is the execution engine behind Run and RunQC. Every LUDEM
// algorithm is a planner followed by the same per-cluster factor chain:
//
//	planner      →  jobs (one per cluster; t_c)
//	orderStage   →  the cluster's ordering and, with it, its symbolic
//	                structure (t_M); starts the chain
//	factorStage  →  chain.open: full LU of the member the chain opens at
//	                (t_d; symbolic too when the ordering was given, not
//	                computed)
//	updateStage  →  chain.apply across the rest of the cluster (t_B), and
//	                chain.refactor where an update fails (t_d)
//
// The chain (core.go) is the one Stream holds. The planner is the only
// algorithm-specific part: BF plans singleton clusters, INC one cluster
// covering the whole sequence, CINC/CLUDE α-clusters, and the QC
// variants β-clusters with their orderings already attached. Clusters
// are mutually independent, so jobs are dispatched to a bounded worker
// pool; each job's callbacks wait for its turn, the previous job's end,
// which keeps the OnFactors callback contract (snapshot order
// i = First..T-1) intact under any worker count.
// Independence is also what Options.First rests on: a cluster nobody
// will read is planned but never dispatched. A chain opens at its
// cluster's first member, except under union ordering (CLUDE and
// CLUDE-QC), where it opens at the first member anybody reads: by
// Theorem 1 every member's fill under O∪ lies inside the USSP, so the
// member at First decomposes in the cluster's static structure as
// directly as the first one does (job.open).
//
// The sequence is read front to back once, by the planner, one step at
// a time (graph.Sequence.Step: what changed, in the work of the change)
// and a whole matrix only where the planner needs one: the first, each
// member that opens a cluster (the Tracker admits the others by their
// pattern delta), each member a chain opens at (for BF, every matrix
// from First on), and under β-clustering every pattern. It keeps only
// the step deltas a chain applies and the matrices a chain decomposes.
// After planning, only a failed update (chain.refactor) and
// MeasureQuality read the sequence again.

// job is one independent unit of engine work: a cluster of
// consecutive matrices factored under one shared ordering.
type job struct {
	idx      int // position in cluster order
	cl       cluster.Cluster
	useUnion bool // ordering and USSP structure from the cluster union (CLUDE)
	hasOrd   bool // ord was precomputed by the planner (β-clustering)
	ord      sparse.Ordering
}

// open is the matrix j's chain decomposes in full when the caller reads
// from first on: the cluster's first member, or under union ordering the
// first member anybody reads. The USSP of O∪ covers every member's fill
// (Theorem 1), so A_first decomposes in the structure A_Start would; an
// ordering or structure taken from the opening member (BF, INC, CINC)
// pins the chain to the start.
func (j job) open(first int) int {
	if j.useUnion {
		return max(j.cl.Start, first)
	}
	return j.cl.Start
}

// plan is a planner's output: the error-message label, the job list in
// cluster order (jobs[k].cl.Start increasing, contiguous), the step
// deltas of the planners whose clusters step — deltas[i] = A_i − A_{i−1}
// in the original indices, nil at i = 0, for BF and where no chain
// applies it — and starts[i] = A_i for the member every cluster that
// ends past Options.First opens at (job.open; nil elsewhere).
type plan struct {
	label  string
	jobs   []job
	deltas [][]sparse.Entry
	starts []*sparse.CSR
}

// stepDeltas reads seq's steps front to back once (Sequence.Step) and
// keeps the value delta of each step from keepFrom on, the steps a chain
// may apply. visit, when non-nil, sees every index i with its step's
// whole delta (the pattern delta included; nil at i = 0) while it is
// current, and with matrix, which reads A_i whole: the only whole-matrix
// read stepDeltas makes, at most once per index and only when visit
// calls it.
func stepDeltas(seq graph.Sequence, keepFrom int, visit func(i int, d *sparse.StepDelta, matrix func() *sparse.CSR)) [][]sparse.Entry {
	deltas := make([][]sparse.Entry, seq.Len())
	var d sparse.StepDelta
	for i := range seq.Len() {
		var step *sparse.StepDelta
		if i > 0 {
			seq.Step(i, &d)
			if i >= keepFrom {
				deltas[i] = slices.Clone(d.Entries)
			}
			step = &d
		}
		if visit != nil {
			var a *sparse.CSR
			visit(i, step, func() *sparse.CSR {
				if a == nil {
					a = seq.Matrix(i)
				}
				return a
			})
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
	pl := plan{label: "BF", jobs: make([]job, e.seq.Len()), starts: make([]*sparse.CSR, e.seq.Len())}
	for i := range pl.jobs {
		pl.jobs[i] = job{idx: i, cl: cluster.Cluster{Start: i, End: i + 1}}
		if i >= e.opt.First {
			pl.starts[i] = e.seq.Matrix(i)
		}
	}
	return pl, nil
}

// incPlanner plans INC: one cluster covering the whole EMS, ordered by
// its first matrix, updated through the dynamic container.
type incPlanner struct{}

func (incPlanner) plan(e *engine) (plan, error) {
	pl := plan{label: "INC", jobs: []job{
		{cl: cluster.Cluster{Start: 0, End: e.seq.Len()}},
	}, starts: make([]*sparse.CSR, e.seq.Len())}
	if e.seq.Len() > 0 {
		pl.starts[0] = e.seq.Matrix(0)
	}
	pl.deltas = stepDeltas(e.seq, 1, nil)
	return pl, nil
}

// alphaPlanner plans CINC (useUnion=false) and CLUDE (useUnion=true):
// α-clusters, ordered by the first member or the cluster union. The
// tracker admits each matrix by its step's pattern delta, so clustering
// costs what changed, not two whole patterns per step, and a matrix is
// read whole only to open a cluster or a chain. Under CINC a
// cluster's first member is kept from the moment it opens the cluster
// until the cluster closes at or before First. Under CLUDE the chains
// open at First and at every later cluster start (job.open), so only
// those matrices are kept, and only the steps after First.
type alphaPlanner struct {
	label    string
	alpha    float64
	useUnion bool
}

func (p alphaPlanner) plan(e *engine) (plan, error) {
	tr := cluster.NewTracker(p.alpha)
	pl := plan{label: p.label, starts: make([]*sparse.CSR, e.seq.Len())}
	if e.seq.Len() == 0 {
		return pl, nil
	}
	// No chain applies a step at or before the earliest point one opens
	// at, a cluster's start at 0.
	first := e.opt.First
	keepFrom := job{useUnion: p.useUnion}.open(first) + 1
	finish := func(cl cluster.Cluster) {
		if cl.End <= first {
			pl.starts[cl.Start] = nil // never decomposed
		}
		pl.jobs = append(pl.jobs, job{idx: len(pl.jobs), cl: cl, useUnion: p.useUnion})
	}
	pl.deltas = stepDeltas(e.seq, keepFrom, func(i int, d *sparse.StepDelta, matrix func() *sparse.CSR) {
		member := func() *sparse.Pattern { return matrix().Pattern() }
		if i == 0 {
			tr.Admit(member())
		} else if cl := tr.Cluster(); !tr.AdmitDelta(d.Added, d.Removed, member) {
			finish(cl) // A_i opens the next cluster
		}
		if (job{cl: tr.Cluster(), useUnion: p.useUnion}).open(first) == i {
			pl.starts[i] = matrix() // the chain of A_i's cluster opens at A_i
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
	pats := make([]*sparse.Pattern, e.seq.Len())
	asym := -1
	keepFrom := job{useUnion: p.useUnion}.open(e.opt.First) + 1 // as in alphaPlanner
	deltas := stepDeltas(e.seq, keepFrom, func(i int, _ *sparse.StepDelta, matrix func() *sparse.CSR) {
		a := matrix()
		pats[i] = a.Pattern()
		if asym < 0 && !a.IsSymmetric(1e-12) {
			asym = i
		}
	})
	if asym >= 0 {
		return plan{}, fmt.Errorf("core: RunQC requires symmetric matrices (matrix %d is not)", asym)
	}
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
	// β-clusters are known only once every pattern is, so the matrices
	// the chains that run open at are read a second time.
	pl := plan{label: p.label, jobs: make([]job, len(qcs)), deltas: deltas, starts: make([]*sparse.CSR, e.seq.Len())}
	for i, qc := range qcs {
		j := job{idx: i, cl: qc.Cluster, useUnion: p.useUnion, hasOrd: true, ord: qc.Ordering}
		if qc.Cluster.End > e.opt.First {
			open := j.open(e.opt.First)
			pl.starts[open] = e.seq.Matrix(open)
		}
		pl.jobs[i] = j
	}
	return pl, nil
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
}

// jobState threads one cluster through its three steps: the job, its
// callback turn (closed once every earlier job is done), its own done
// (the next job's turn), the symbolic structure orderStage's
// elimination produced (nil when the planner ordered) and the cluster's
// chain.
type jobState struct {
	job   job
	turn  <-chan struct{}
	done  chan struct{}
	sym   *lu.SymbolicLU
	chain chain
}

// orderStage computes (or adopts) the cluster ordering — phase t_M —
// and starts the cluster's chain in it.
func orderStage(e *engine, w *worker, st *jobState) error {
	ord := st.job.ord
	if !st.job.hasOrd {
		t0 := time.Now()
		var r order.Result
		if st.job.useUnion {
			r = order.Markowitz(st.job.cl.Union) // O∪ = O*(A∪), Alg. 3 line 2
		} else {
			r = order.Markowitz(e.starts[st.job.cl.Start].Pattern()) // O1 = O*(A1)
		}
		w.times.Ordering += time.Since(t0)
		// The elimination that chose the pivots also produced the
		// structure factorStage would otherwise recompute.
		ord, st.sym = r.Ordering, r.Symbolic
		if e.sspOut != nil {
			e.sspOut[st.job.cl.Start] = r.SSPSize
		}
	}
	st.chain = newChain(ord)
	e.orderings[st.job.idx] = ord
	return e.stopped()
}

// factorStage opens the chain on the member job.open names — phase
// t_d — and lets go of the member, then emits its snapshot.
func factorStage(e *engine, w *worker, st *jobState) error {
	cl, open := st.job.cl, st.job.open(e.opt.First)
	t1 := time.Now()
	if st.sym == nil && st.job.useUnion {
		// Symbolic decomposition of A∪^{O∪} gives the USSP; the static
		// structure built from it serves the whole cluster (Alg. 3
		// lines 3–4).
		st.sym = lu.Symbolic(cl.Union.Permute(st.chain.ord))
	}
	// INC/CINC maintain the linked-list container across the cluster;
	// singleton clusters (and all of BF) never update, so the static
	// container serves directly.
	if err := st.chain.open(st.sym, e.starts[open], !st.job.useUnion && cl.Len() > 1, &w.luWS); err != nil {
		return fmt.Errorf("core: %s cluster %d (matrix %d): %w", e.label, st.job.idx, open, err)
	}
	e.starts[open] = nil // this worker's own element
	w.times.FullLU += time.Since(t1)
	return e.emit(st, open)
}

// updateStage walks the rest of the cluster, from the member after the
// one the chain opened at, with Bennett updates — phase t_B — emitting
// every snapshot, then records the cluster's structural bookkeeping. A
// step moves only the planner's ∆A into the cluster ordering; a whole
// matrix is permuted only to refactorize.
func updateStage(e *engine, w *worker, st *jobState) error {
	cl, c := st.job.cl, &st.chain
	for i := st.job.open(e.opt.First) + 1; i < cl.End; i++ {
		if err := e.stopped(); err != nil {
			return err
		}
		t2 := time.Now()
		w.delta = sparse.PermuteEntries(w.delta[:0], e.deltas[i], c.rowInv, c.colInv)
		err := c.apply(bennett.SplitTerms(w.delta), &w.benWS, &w.bstats)
		w.times.Bennett += time.Since(t2)
		if err != nil {
			// Robustness fallback (never triggered by paper-like
			// workloads): refactorize from scratch in the same order.
			t3 := time.Now()
			if ferr := c.refactor(e.seq.Matrix(i), &w.luWS); ferr != nil {
				return fmt.Errorf("core: %s matrix %d: update %v; refactorization %w", e.label, i, err, ferr)
			}
			w.refacts++
			w.times.FullLU += time.Since(t3)
		}
		if err := e.emit(st, i); err != nil {
			return err
		}
	}
	if c.dyn != nil {
		w.dynIns += c.dyn.Inserts
		w.dynScan += c.dyn.ScanSteps
		e.structSizes[st.job.idx] = c.dyn.Size()
	} else {
		e.structSizes[st.job.idx] = c.static.Size()
	}
	return nil
}

// engine executes a plan's jobs over a bounded worker pool.
type engine struct {
	seq     graph.Sequence
	opt     Options
	label   string
	workers int

	jobs        []job             // the clusters to run: the plan's, less those Options.First skips
	deltas      [][]sparse.Entry  // the plan's step deltas, read-only
	starts      []*sparse.CSR     // the plan's chain openers; each dropped by the worker that opens it
	orderings   []sparse.Ordering // per planned cluster, written by its owning worker
	structSizes []int             // per planned cluster
	sspOut      []int             // per matrix; non-nil only for BF

	errOnce sync.Once
	err     error
	failed  atomic.Bool // set once err is
}

// errStopped ends a job early because another one failed; fail has
// already recorded that job's error, which is what run returns.
var errStopped = errors.New("core: stopped by an earlier failure")

// newEngine resolves the worker count (Workers <= 0 → GOMAXPROCS).
func newEngine(seq graph.Sequence, opt Options) *engine {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &engine{seq: seq, opt: opt, workers: workers}
}

// fail records the first job error and stops every other job at its
// next stopped check.
func (e *engine) fail(err error) {
	e.errOnce.Do(func() {
		e.err = err
		e.failed.Store(true)
	})
}

// stopped is errStopped once a job has failed, nil before.
func (e *engine) stopped() error {
	if e.failed.Load() {
		return errStopped
	}
	return nil
}

// runJob drives one cluster through its chain: order, decompose the
// member it opens at, update the rest.
func (e *engine) runJob(w *worker, st *jobState) error {
	if err := orderStage(e, w, st); err != nil {
		return err
	}
	if err := factorStage(e, w, st); err != nil {
		return err
	}
	return updateStage(e, w, st)
}

// run executes the job list and merges the worker-local counters into
// res. It returns the first job error.
//
// Jobs are dispatched in cluster order over an unbuffered channel, each
// with its turn: the previous job's done, which the worker closes once
// it is finished with that job, on success, error or skip alike. A job's
// first callback waits for its turn, so callbacks fire in snapshot order
// and never overlap, while a later cluster orders and decomposes ahead.
// The lowest unfinished job's turn is always open, and some worker owns
// it (a job is handed out only after every earlier one was), so the pool
// cannot deadlock. After a failure workers keep draining the channel,
// closing each job's done unrun, so the feeder never blocks.
func (e *engine) run(res *Result) error {
	nw := min(e.workers, len(e.jobs))
	if nw < 1 {
		nw = 1
	}

	jobs := make(chan *jobState)
	var wg sync.WaitGroup
	workers := make([]*worker, nw)
	for wi := range workers {
		w := &worker{}
		workers[wi] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				if e.stopped() == nil {
					if err := e.runJob(w, st); err != nil {
						e.fail(err)
					}
				}
				close(st.done)
			}
		}()
	}

	turn := make(chan struct{})
	close(turn)
	for _, j := range e.jobs {
		st := &jobState{job: j, turn: turn, done: make(chan struct{})}
		jobs <- st
		turn = st.done
	}
	close(jobs)
	wg.Wait()

	for _, w := range workers {
		res.Times.Ordering += w.times.Ordering
		res.Times.FullLU += w.times.FullLU
		res.Times.Bennett += w.times.Bennett
		res.Bennett.Add(w.bstats)
		res.Refactorizations += w.refacts
		res.DynamicInserts += w.dynIns
		res.DynamicScanSteps += w.dynScan
	}
	return e.err
}

// emit delivers snapshot i, current in st's chain, to the OnFactors
// callback on the job's own worker, once the job's turn has come. With
// no callback, or below Options.First (the head of an INC, CINC or
// CINC-QC cluster that straddles it: a union-ordered chain opens at
// First), it is only a stopped check. The chain is not touched again
// until the callback returns, because its factors are updated in place
// for the next snapshot.
func (e *engine) emit(st *jobState, i int) error {
	if e.opt.OnFactors == nil || i < e.opt.First {
		return e.stopped()
	}
	<-st.turn
	if err := e.stopped(); err != nil {
		return err
	}
	e.opt.OnFactors(i, st.chain.solver)
	return nil
}

// execute is the shared driver behind Run and RunQC: plan (timed as
// t_c), execute over the pool, then assemble the Result.
func execute(seq graph.Sequence, alg Algorithm, opt Options, pl planner) (*Result, error) {
	// First = 0 stays legal on an empty sequence: it means "everything".
	if f := opt.First; f < 0 || (f > 0 && f >= seq.Len()) {
		return nil, fmt.Errorf("core: Options.First %d outside [0, %d)", f, seq.Len())
	}
	res := &Result{Algorithm: alg, T: seq.Len()}
	e := newEngine(seq, opt)

	start := time.Now()
	tc := time.Now()
	p, err := pl.plan(e)
	if err != nil {
		return nil, err
	}
	res.Times.Clustering = time.Since(tc)

	e.label, e.deltas, e.starts = p.label, p.deltas, p.starts
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
		res.SSPSizes = make([]int, seq.Len())
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
