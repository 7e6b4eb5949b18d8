package core

import (
	"fmt"
	"time"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// Algorithm selects a LUDEM solver.
type Algorithm string

// The four algorithms of paper §4.
const (
	BF    Algorithm = "BF"    // Markowitz + full LU per matrix (baseline)
	INC   Algorithm = "INC"   // one ordering, Bennett across the whole EMS
	CINC  Algorithm = "CINC"  // α-clusters, first-matrix ordering, dynamic Bennett
	CLUDE Algorithm = "CLUDE" // α-clusters, A∪ ordering, USSP static Bennett
)

// Options configures a run.
type Options struct {
	// Alpha is the α-clustering similarity threshold for CINC/CLUDE.
	Alpha float64
	// Workers bounds the worker pool that factors independent clusters
	// concurrently. Zero (or negative) means runtime.GOMAXPROCS(0);
	// one runs the clusters one after another on the same path. The
	// pool never exceeds the number of clusters. See the package
	// documentation for what Workers > 1 changes (and does not change)
	// about callback ordering and phase times.
	Workers int
	// First is the first matrix index the caller will read; zero means
	// the whole sequence. The α-clusters of the paper are independent —
	// each has its own ordering, USSP and Bennett chain — so a cluster
	// that ends at or before First is planned (Result.Clusters is the
	// whole sequence's, and every later cluster is what it would have
	// been) but never ordered, decomposed or updated. Under CLUDE and
	// CLUDE-QC the cluster that straddles First opens its chain at First:
	// its ordering and USSP are the whole cluster's union's, which by
	// Theorem 1 hold every member's fill, so A_First is decomposed in
	// them directly and the snapshots of that cluster carry the exact LU
	// of A_First plus fewer Bennett steps, agreeing with a First = 0
	// run's to rounding; every later cluster is bit-identical to it.
	// Under BF, INC, CINC and CINC-QC, whose ordering or structure comes
	// from a cluster's first member, the straddled cluster runs its chain
	// from its own start, and every snapshot from First on is
	// bit-identical to a First = 0 run's. INC is one cluster, so it
	// skips nothing. OnFactors fires for i = First..T-1. Outside [0, T)
	// is an error.
	First int
	// OnFactors, when non-nil, is invoked once per matrix index with a
	// solver whose factors are current for that matrix, strictly in
	// snapshot order i = First..T-1 regardless of Workers. The solver is
	// only valid during the callback: its factors are updated in place
	// for the next matrix afterwards. A caller that keeps a snapshot
	// clones it inside the callback (lu.Solver.Clone; a CLUDE clone
	// copies the values only and shares the cluster's one USSP index
	// structure, in memory as in the paper). Callbacks never run
	// concurrently with each other.
	OnFactors func(i int, s *lu.Solver)
	// MeasureQuality computes |s̃p(A_i^{O_i})| for every matrix after
	// the run (outside the timed section) so quality-loss can be
	// reported. BF always records it (its orderings come with sizes for
	// free).
	MeasureQuality bool
	// StarSizes optionally supplies precomputed reference sizes
	// |s̃p(A_i*)| to the LUDEM-QC clustering (see StarSizes), so a
	// β-sweep over the same EMS computes them once instead of once per
	// run. Ignored by the plain LUDEM algorithms.
	StarSizes []int
}

// PhaseTimes is the execution-time breakdown of Figure 8(a). The
// phases are accumulated per worker and summed, so with Workers > 1
// they measure aggregate CPU time and their total can exceed Wall —
// that surplus is exactly the work the pool overlapped.
type PhaseTimes struct {
	Clustering time.Duration // t_c: α- or β-clustering, with the one diff of each step
	Ordering   time.Duration // t_M: Markowitz / MinDegree runs
	FullLU     time.Duration // t_d: symbolic + numeric full decompositions
	Bennett    time.Duration // t_B: incremental updates (incl. moving ∆A into the cluster ordering)
}

// Total sums the phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Clustering + p.Ordering + p.FullLU + p.Bennett
}

// Result is the outcome of running a LUDEM algorithm over an EMS.
type Result struct {
	Algorithm Algorithm
	T         int

	// SSPSizes[i] = |s̃p(A_i^{O_i})| when quality measurement is on
	// (always on for BF); nil otherwise. Zero for the matrices of a
	// cluster Options.First skipped.
	SSPSizes []int
	// Clusters are the [start, end) boundaries planned (one cluster
	// covering everything for BF — each BF "cluster" is a singleton —
	// and INC), whether or not Options.First let them run.
	Clusters []cluster.Cluster
	// Times is the per-phase breakdown; Wall is the timed total. Times
	// (clustering aside, which always covers the whole sequence),
	// Refactorizations, Bennett and the Dynamic counters cover the
	// chains that ran, from the member each opened at: all of them from
	// their starts unless Options.First skipped some (or, under union
	// ordering, opened the straddled one at First).
	Times PhaseTimes
	Wall  time.Duration

	// Refactorizations counts Bennett failures that fell back to a
	// full decomposition (0 in all paper-like workloads).
	Refactorizations int
	// Bennett accumulates update statistics; DynamicInserts and
	// DynamicScanSteps expose the list-restructuring work of the
	// dynamic container (INC/CINC only).
	Bennett          bennett.Stats
	DynamicInserts   int
	DynamicScanSteps int
	// StructureSizes[c] is the factor-structure size used by cluster c
	// (USSP size for CLUDE, final accreted size for INC/CINC, tight
	// size for BF's per-matrix runs); zero for a cluster Options.First
	// skipped.
	StructureSizes []int
}

// Run executes alg over the sequence, which it reads front to back once
// while planning and holds no more of than the step deltas and the
// matrices its chains decompose (see engine.go).
func Run(seq graph.Sequence, alg Algorithm, opt Options) (*Result, error) {
	switch alg {
	case BF:
		return execute(seq, alg, opt, bfPlanner{})
	case INC:
		return execute(seq, alg, opt, incPlanner{})
	case CINC:
		return execute(seq, alg, opt, alphaPlanner{label: "CINC", alpha: opt.Alpha})
	case CLUDE:
		return execute(seq, alg, opt, alphaPlanner{label: "CLUDE", alpha: opt.Alpha, useUnion: true})
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// chain is one cluster's factor chain — the per-cluster scheme of §4
// that Run and Stream share: one ordering for the cluster, one full
// decomposition into a container, Bennett updates in place, and a
// refactorization in the same ordering when an update fails.
type chain struct {
	ord sparse.Ordering
	// rowInv and colInv are the ordering's inverses: they move a matrix
	// or a step's ∆A into the chain's index space.
	rowInv, colInv sparse.Perm
	static         *lu.StaticFactors
	dyn            *lu.DynamicFactors // INC/CINC's linked lists; nil otherwise
	// solver is over the live container. A caller may keep a solver it
	// was handed (a retained snapshot), so it is never re-pointed:
	// replacing the container means a new solver.
	solver *lu.Solver
}

// newChain starts a chain in ordering ord.
func newChain(ord sparse.Ordering) chain {
	return chain{ord: ord, rowInv: ord.Row.Inverse(), colInv: ord.Col.Inverse()}
}

// open decomposes a (unpermuted) into a fresh container built from sym
// (nil: a's own structure in the chain's ordering); dynamic moves the
// values into INC/CINC's linked lists. The chain changes only when the
// decomposition succeeds.
func (c *chain) open(sym *lu.SymbolicLU, a *sparse.CSR, dynamic bool, ws *lu.Workspace) error {
	ap := a.PermuteInv(c.ord, c.colInv)
	if sym == nil {
		sym = lu.Symbolic(ap.Pattern())
	}
	static := lu.NewStaticFactors(sym)
	if err := static.FactorizeWith(ap, ws); err != nil {
		return err
	}
	var fac lu.Factors = static
	c.static, c.dyn = static, nil
	if dynamic {
		c.dyn = lu.NewDynamicFactors(static)
		fac = c.dyn
	}
	c.solver = &lu.Solver{F: fac, O: c.ord}
	return nil
}

// apply applies pre-split Bennett terms (bennett.SplitTerms) to the live
// container in place.
func (c *chain) apply(terms []bennett.Rank1Term, ws *bennett.Workspace, st *bennett.Stats) error {
	return ws.ApplyTerms(c.solver.F, terms, st)
}

// refactor decomposes a from scratch in the chain's ordering, after a
// failed update: the static container, whose structure still covers a,
// is refilled in place; the linked lists are rebuilt from a's own
// structure behind a new solver, their restructuring counters running
// on.
func (c *chain) refactor(a *sparse.CSR, ws *lu.Workspace) error {
	if c.dyn == nil {
		return c.static.FactorizeWith(a.PermuteInv(c.ord, c.colInv), ws)
	}
	old := c.dyn
	if err := c.open(nil, a, true, ws); err != nil {
		return err
	}
	c.dyn.Inserts, c.dyn.ScanSteps = old.Inserts, old.ScanSteps
	return nil
}

// measureQuality computes |s̃p(A_i^{O_i})| for every matrix of the
// clusters that ran (untimed; this is harness bookkeeping, not algorithm
// work). A skipped cluster has no ordering to measure.
func measureQuality(e *engine) []int {
	out := make([]int, e.seq.Len())
	for _, j := range e.jobs {
		for i := j.cl.Start; i < j.cl.End; i++ {
			out[i] = lu.SymbolicSize(e.seq.Matrix(i).Pattern(), e.orderings[j.idx])
		}
	}
	return out
}

// QualityLoss computes the per-matrix quality-loss series of
// Definition 4 given the reference sizes |s̃p(A_i*)| from a BF run:
// ql_i = (|s̃p(A_i^{O_i})| − |s̃p(A_i*)|) / |s̃p(A_i*)|.
func QualityLoss(sspSizes, starSizes []int) []float64 {
	if len(sspSizes) != len(starSizes) {
		panic("core: quality series length mismatch")
	}
	out := make([]float64, len(sspSizes))
	for i := range out {
		out[i] = float64(sspSizes[i]-starSizes[i]) / float64(starSizes[i])
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
