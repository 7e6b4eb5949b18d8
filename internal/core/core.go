package core

import (
	"context"
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
	// one forces the sequential path. The pool never exceeds the
	// number of clusters. See the package documentation for what
	// Workers > 1 changes (and does not change) about callback
	// ordering and phase times.
	Workers int
	// Context cancels a run in flight: workers observe cancellation
	// between per-snapshot steps and Run returns the context's error.
	// Nil means context.Background() (never cancelled).
	Context context.Context
	// First is the first matrix index the caller will read; zero means
	// the whole sequence. The α-clusters of the paper are independent —
	// each has its own ordering, USSP and Bennett chain — so a cluster
	// that ends at or before First is planned (Result.Clusters is the
	// whole sequence's, and every later cluster is what it would have
	// been) but never ordered, decomposed or updated; a cluster that
	// straddles First runs its chain from its own start, as the factors
	// of its later members require. OnFactors fires for i = First..T-1,
	// bit-identical to the same snapshots of a First = 0 run. INC is one
	// cluster, so it skips nothing. Outside [0, T) is an error.
	First int
	// OnFactors, when non-nil, is invoked once per matrix index with a
	// solver whose factors are current for that matrix, strictly in
	// snapshot order i = First..T-1 regardless of Workers. The solver is
	// only valid during the callback (factors are updated in place for
	// the next matrix afterwards) unless RetainFactors is set.
	// Callbacks never run concurrently with each other.
	OnFactors func(i int, s *lu.Solver)
	// RetainFactors changes the OnFactors contract: each callback
	// receives a clone of the solver, valid indefinitely — the
	// engine's in-place update path never touches it. This is the
	// pin-per-snapshot mode the serving layer builds on. A CLUDE clone
	// copies the factor values only: a cluster's snapshots share the
	// one USSP index structure, in memory as in the paper (INC/CINC's
	// linked-list container has no frozen part and is copied whole).
	// The copy is made inside the emitting worker, so clones of
	// independent clusters proceed in parallel. Ignored when OnFactors
	// is nil.
	RetainFactors bool
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
	// clusters that ran: all of them unless Options.First skipped some.
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

// Run executes alg over the EMS.
func Run(ems *graph.EMS, alg Algorithm, opt Options) (*Result, error) {
	switch alg {
	case BF:
		return execute(ems, alg, opt, bfPlanner{})
	case INC:
		return execute(ems, alg, opt, incPlanner{})
	case CINC:
		return execute(ems, alg, opt, alphaPlanner{label: "CINC", alpha: opt.Alpha})
	case CLUDE:
		return execute(ems, alg, opt, alphaPlanner{label: "CLUDE", alpha: opt.Alpha, useUnion: true})
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// patterns extracts the sparsity patterns of the EMS.
func patterns(ems *graph.EMS) []*sparse.Pattern {
	ps := make([]*sparse.Pattern, ems.Len())
	for i, a := range ems.Matrices {
		ps[i] = a.Pattern()
	}
	return ps
}

// refactorInPlace rebuilds factors for cur after a failed incremental
// update, preserving the container style of the algorithm.
func refactorInPlace(fac *lu.Factors, static **lu.StaticFactors, dyn **lu.DynamicFactors, cur *sparse.CSR, useUnion bool) error {
	if useUnion {
		// The USSP container still covers cur; refill numerically.
		if err := (*static).Factorize(cur); err != nil {
			return err
		}
		*fac = *static
		return nil
	}
	st := lu.NewStaticFactors(lu.Symbolic(cur.Pattern()))
	if err := st.Factorize(cur); err != nil {
		return err
	}
	*dyn = lu.NewDynamicFactors(st)
	*fac = *dyn
	return nil
}

// measureQuality computes |s̃p(A_i^{O_i})| for every matrix of the
// clusters that ran (untimed; this is harness bookkeeping, not algorithm
// work). A skipped cluster has no ordering to measure.
func measureQuality(e *engine) []int {
	out := make([]int, e.ems.Len())
	for _, j := range e.jobs {
		for i := j.cl.Start; i < j.cl.End; i++ {
			out[i] = lu.SymbolicSize(e.ems.Matrices[i].Pattern(), e.orderings[j.idx])
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
