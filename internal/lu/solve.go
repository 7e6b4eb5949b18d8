package lu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// Factors is the common interface of the two factor containers: enough
// to solve systems (dense and reach-restricted), to measure structural
// size, and to snapshot the numeric state for retention beyond the
// engine's in-place updates.
type Factors interface {
	Dim() int
	Size() int
	SolveInPlace(b []float64)
	Reconstruct() *sparse.CSR
	// Clone returns a copy sharing no mutable state with the receiver;
	// the copy stays valid while the original keeps being updated in
	// place. What never changes after construction may be shared: a
	// static container's clone owns its values and shares the frozen
	// index structure (see MemBytes for who pays for what).
	Clone() Factors

	// LSucc returns the rows fed by column j of L — the successors of j
	// in the forward-substitution dependency graph (all > j, sorted
	// ascending). The slice aliases internal storage and must not be
	// modified.
	LSucc(j int) []int
	// USucc returns the rows of column j of U — the successors of j in
	// the backward-substitution dependency graph (all < j, sorted
	// ascending). The slice aliases internal storage and must not be
	// modified.
	USucc(j int) []int
	// SolveReachInPlace runs the forward/diagonal/backward substitution
	// over x restricted to precomputed reach sets: freach is the
	// forward reach of the right-hand side's support (closed under
	// LSucc, ascending) and breach the backward reach of freach (closed
	// under USucc, ascending, a superset of freach). Entries of x
	// outside freach must be zero on entry; entries outside breach are
	// untouched and remain exact zeros of the solution. On the reach
	// set the result is bit-identical to SolveInPlace on the equivalent
	// dense right-hand side: the restricted loops execute the same
	// floating-point operations in the same order.
	SolveReachInPlace(x []float64, freach, breach []int)

	// SolveBlockInPlace runs SolveInPlace over k vectors through one
	// traversal of the factors: at every L column, pivot, and U row,
	// all k vectors advance before the loop moves on, so the factor
	// structure is loaded once per block instead of once per
	// right-hand side. Per vector the floating-point operations and
	// their order are exactly SolveInPlace's, so each xs[r] ends up
	// bit-identical to an independent SolveInPlace(xs[r]).
	SolveBlockInPlace(xs [][]float64)
}

// Compile-time interface checks.
var (
	_ Factors = (*StaticFactors)(nil)
	_ Factors = (*DynamicFactors)(nil)
)

// Solver couples LU factors of a *reordered* matrix A^O = P·A·Q with
// the ordering O, and solves the original system A·x = b:
//
//	A^O·(Q⁻¹x) = P·b   ⇒   x = Q·solve(P·b)
//
// (§2.2 of the paper). There is one way to solve: Solve(b) is the
// allocating convenience for a single dense right-hand side, and
// SolveRHS is the workspace-taking entry point that answers k ≥ 1
// right-hand sides and picks the substitution route itself.
//
// F and O must not be replaced after the first SolveRHS call: it caches
// the inverse row permutation and the adjacency accessors on first use
// (concurrent solves on one Solver are safe; the factor containers are
// only read).
type Solver struct {
	F Factors
	O sparse.Ordering

	// Lazily built support-list plumbing (see prep).
	prepOnce sync.Once
	rowInv   sparse.Perm
	lsucc    func(int) []int
	usucc    func(int) []int

	// Lazily packed supernodal panels (see panelsBuild). Only built
	// for frozen StaticFactors; nil after the once for anything else.
	panelOnce sync.Once
	panels    *PanelSet

	// probe is the reach probe's abort streak and the support-list
	// solves still to run without probing (see probeDue): streak<<8 |
	// skips. It only schedules probes — every route returns the same
	// bits — so concurrent solves update it with plain atomic loads and
	// stores and a lost update costs at most one probe.
	probe atomic.Uint32
}

// Solve returns x with A·x = b, leaving b untouched.
func (s *Solver) Solve(b []float64) []float64 {
	bp := s.O.Row.Apply(b) // b' = P·b
	s.F.SolveInPlace(bp)   // x' = (A^O)⁻¹ b'
	return s.O.Col.Scatter(bp)
}

// Clone copies the factors (Factors.Clone) so the returned solver stays
// valid after the original's factors are updated in place. The ordering
// is shared: it is immutable once constructed.
func (s *Solver) Clone() *Solver {
	return &Solver{F: s.F.Clone(), O: s.O}
}

// RHS is one right-hand side of a SolveRHS call and, after the call,
// its solution.
type RHS struct {
	// Idx and Val give the right-hand side as a support list: entry
	// Idx[i] carries Val[i], duplicate indices accumulate (matching a
	// dense scatter), every other entry is zero. Ignored when B is set.
	Idx []int
	Val []float64
	// B, when non-nil, is the right-hand side as a dense vector.
	B []float64

	// X receives the solution on every route but RouteReach: its
	// capacity is reused (nil allocates) and every position is
	// overwritten. X may alias B — B is consumed by the permutation
	// before X is written.
	X []float64
	// XIdx and XVal receive the solution on RouteReach, restricted to
	// its support (original numbering, unsorted): every index not
	// listed is an exact zero of the solution, and X is left untouched.
	// They alias the workspace and stay valid until its next solve.
	XIdx []int
	XVal []float64
}

// Route names the substitution strategy a SolveRHS call took. Every
// route yields the same bits — per right-hand side, each executes the
// floating-point operations of SolveInPlace in SolveInPlace's order —
// so the choice is purely an execution-schedule decision.
type Route string

const (
	// RouteReach is the Gilbert–Peierls sparse-RHS solve: only the
	// rows reachable from the support in the factors' dependency
	// graphs are touched (SolveReachInPlace).
	RouteReach Route = "reach"
	// RouteDense is one full substitution (SolveInPlace).
	RouteDense Route = "dense"
	// RouteBlock is one traversal of the factors shared by all k
	// right-hand sides (Factors.SolveBlockInPlace).
	RouteBlock Route = "block"
	// RoutePanel is RouteBlock through the packed supernodal panels
	// (PanelSet.SolveBlockInPlace).
	RoutePanel Route = "panel"
)

// Report says what a SolveRHS call did, so callers can account for the
// route without knowing how it was picked.
type Report struct {
	Route Route
	// ReachRows is the number of rows RouteReach touched.
	ReachRows int
	// ProbeAborted reports that the symbolic reach probe ran into its
	// cap — before any numeric work — and the call fell back to
	// RouteDense.
	ProbeAborted bool
	// ProbeSkipped reports that a k = 1 support-list solve went to
	// RouteDense without probing, because the solver's recent probes all
	// aborted (see probeSuspendAfter). Every k = 1 support-list solve is
	// exactly one of RouteReach, ProbeAborted and ProbeSkipped.
	ProbeSkipped bool
	// Packed is the panel set this call built and cached on the solver;
	// nil unless this very call paid the packing, so exactly one caller
	// per solver can account its cost.
	Packed *PanelSet
}

// The route policy. Each threshold keeps the value its bench sweep
// justified (docs/PERFORMANCE.md, "Solve routes"):
const (
	// reachCapFrac caps the reach probe at this fraction of n. Past
	// roughly a quarter of the rows the dense loops' sequential sweeps
	// beat the reach route's index indirection (sparsesolve sweep).
	reachCapFrac = 0.25
	// probeSuspendAfter and probeMaxSkip stop a solver whose reach never
	// fits from paying for the probe on every solve: from the
	// probeSuspendAfter-th consecutive abort on, the next 1, 2, 4, …
	// support-list solves (at most probeMaxSkip) go dense unprobed, then
	// one probe runs again, and the first probe that fits clears the
	// streak. A solver that always aborts settles at one probe per
	// probeMaxSkip+1 solves; one whose seeds mostly fit never reaches a
	// streak. The rule is adaptive because nothing symbolic predicts the
	// abort: on the Wiki-like factors the elimination tree's longest path
	// (477 rows) is under the cap (500) while 803 of 2000 seeds exceed it
	// on forward reach alone.
	probeSuspendAfter = 2
	probeMaxSkip      = 63
	// panelMinMeanWidth and panelMinWork gate the packed panels: below
	// a mean panel width of 1.5 nothing merged, and below mean width ×
	// k = 8 the dense-block amortization does not pay for the lane
	// interleave (supernodal sweep).
	panelMinMeanWidth = 1.5
	panelMinWork      = 8
)

// SolveRHS solves A·x = b for every right-hand side in rhs, writing
// each solution into its RHS, and reports the route it chose from what
// it can observe:
//
//   - k = 1, support list: probe the reach with a cap of 0.25·n and
//     take RouteReach when it fits, RouteDense when the probe aborts
//     (or the support alone exceeds the cap) — or, unprobed, while this
//     solver's probes are suspended after aborting twice or more in a
//     row (probeSuspendAfter).
//   - k = 1, dense vector: RouteDense (the reach is all of n).
//   - k ≥ 2: one blocked traversal — RoutePanel when frozen is set, the
//     factors are *StaticFactors, and the solver's packed set (built on
//     first need) has mean width ≥ 1.5 and mean width × k ≥ 8;
//     RouteBlock otherwise.
//
// frozen states that the factor values will never change again (a
// pinned or materialized solver): the packed panels snapshot values,
// so a live source's solver must pass false.
//
// It panics when a dense right-hand side's length is not the system
// dimension, a support list's Idx and Val differ in length, or a
// support index lies outside [0, n).
func (s *Solver) SolveRHS(rhs []RHS, frozen bool, ws *SolveWorkspace) Report {
	n := s.F.Dim()
	for r := range rhs {
		checkRHS(&rhs[r], r, n)
	}
	s.prep()
	k := len(rhs)
	var rep Report
	switch {
	case k == 0:
	case k == 1:
		r := &rhs[0]
		if r.B == nil {
			maxReach := int(reachCapFrac * float64(n))
			if maxReach < 1 {
				maxReach = 1
			}
			switch {
			case len(r.Idx) > maxReach:
				rep.ProbeAborted = true
			case !s.probeDue():
				rep.ProbeSkipped = true
			case s.solveReach(r, maxReach, ws):
				s.probe.Store(0)
				rep.Route, rep.ReachRows = RouteReach, len(r.XIdx)
				return rep
			default:
				s.probeAborted()
				rep.ProbeAborted = true
			}
		}
		s.solveBlock(rhs, nil, ws)
		rep.Route = RouteDense
	default:
		var ps *PanelSet
		if frozen {
			var built bool
			if ps, built = s.panelsBuild(); built {
				rep.Packed = ps
			}
			if ps != nil {
				if mw := ps.MeanWidth(); mw < panelMinMeanWidth || mw*float64(k) < panelMinWork {
					ps = nil
				}
			}
		}
		s.solveBlock(rhs, ps, ws)
		rep.Route = RouteBlock
		if ps != nil {
			rep.Route = RoutePanel
		}
	}
	return rep
}

// probeDue reports whether this support-list solve should probe its
// reach, consuming one suspended solve when it should not.
func (s *Solver) probeDue() bool {
	v := s.probe.Load()
	if v&0xff == 0 {
		return true
	}
	s.probe.Store(v - 1)
	return false
}

// probeAborted extends the abort streak and, from probeSuspendAfter
// consecutive aborts on, suspends probing for a doubling number of
// solves.
func (s *Solver) probeAborted() {
	streak := s.probe.Load()>>8 + 1
	var skips uint32
	if streak >= probeSuspendAfter {
		skips = 1 << (streak - probeSuspendAfter)
		if skips >= probeMaxSkip {
			// Hold the streak where the skip count saturates.
			skips, streak = probeMaxSkip, streak-1
		}
	}
	s.probe.Store(streak<<8 | skips)
}

// checkRHS is the one input check of the one entry point.
func checkRHS(r *RHS, pos, n int) {
	if r.B != nil {
		if len(r.B) != n {
			panic(fmt.Sprintf("lu: SolveRHS right-hand side %d has length %d, system dimension is %d", pos, len(r.B), n))
		}
		return
	}
	if len(r.Idx) != len(r.Val) {
		panic(fmt.Sprintf("lu: SolveRHS right-hand side %d has %d support indices but %d values", pos, len(r.Idx), len(r.Val)))
	}
	for _, u := range r.Idx {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("lu: SolveRHS right-hand side %d has support index %d outside [0,%d)", pos, u, n))
		}
	}
}

// prep lazily builds the plumbing shared by every SolveRHS call on
// this solver: the inverse row permutation (so permuting a support
// list costs O(|support|), not O(n)) and the bound adjacency accessors
// (so the reach traversals allocate nothing per query).
func (s *Solver) prep() {
	s.prepOnce.Do(func() {
		s.rowInv = s.O.Row.Inverse()
		s.lsucc = s.F.LSucc
		s.usucc = s.F.USucc
	})
}

// solveReach is the reach-restricted strategy for one support-list
// right-hand side. maxReach caps the number of rows the solve may
// touch (<= 0 means unlimited): when the reach would exceed it the
// symbolic probe aborts early — before any numeric work — and
// solveReach returns false with the workspace still reusable. On the
// returned support the values are bit-identical to the dense route.
func (s *Solver) solveReach(r *RHS, maxReach int, ws *SolveWorkspace) bool {
	n := s.F.Dim()

	// Permute the support: supp(P·b) = P⁻¹ applied entrywise.
	ws.seeds = ws.seeds[:0]
	for _, u := range r.Idx {
		ws.seeds = append(ws.seeds, s.rowInv[u])
	}
	// Symbolic phase: forward reach of the support under L, then
	// backward reach of that under U. Both abort early past maxReach.
	freach, ok := ws.fwd.Reach(n, ws.seeds, s.lsucc, maxReach)
	if !ok {
		return false
	}
	breach, ok := ws.bwd.Reach(n, freach, s.usucc, maxReach)
	if !ok {
		return false
	}

	// Numeric phase on the reach set only.
	x := ws.dense(n)
	for i, u := range r.Idx {
		x[s.rowInv[u]] += r.Val[i] // b' = P·b, sparse scatter
	}
	s.F.SolveReachInPlace(x, freach, breach)

	// Gather x = Q·x' on the support and restore the workspace's
	// all-zero invariant in the same pass.
	ws.outIdx = ws.outIdx[:0]
	ws.outVal = ws.outVal[:0]
	for _, i := range breach {
		ws.outIdx = append(ws.outIdx, s.O.Col[i])
		ws.outVal = append(ws.outVal, x[i])
		x[i] = 0
	}
	r.XIdx, r.XVal = ws.outIdx, ws.outVal
	return true
}

// solveBlock is the full-substitution strategy for k ≥ 1 right-hand
// sides: permute each into a workspace vector, run one kernel over all
// of them — the packed panels when ps is non-nil, the container's
// scalar block sweep for k ≥ 2, SolveInPlace for a lone vector — and
// scatter each solution into its X.
func (s *Solver) solveBlock(rhs []RHS, ps *PanelSet, ws *SolveWorkspace) {
	n := s.F.Dim()
	cols := ws.vectors(len(rhs), n)
	for r := range rhs {
		w := cols[r]
		if b := rhs[r].B; b != nil {
			for i, v := range s.O.Row {
				w[i] = b[v] // b' = P·b
			}
			continue
		}
		for i := range w {
			w[i] = 0
		}
		for i, u := range rhs[r].Idx {
			w[s.rowInv[u]] += rhs[r].Val[i]
		}
	}
	switch {
	case ps != nil:
		ps.SolveBlockInPlace(cols, ws)
	case len(cols) == 1:
		s.F.SolveInPlace(cols[0])
	default:
		s.F.SolveBlockInPlace(cols)
	}
	for r := range rhs {
		x := rhs[r].X
		if cap(x) < n {
			x = make([]float64, n)
		}
		x = x[:n]
		for i, v := range s.O.Col {
			x[v] = cols[r][i] // x = Q·x'
		}
		rhs[r].X = x
	}
}

// FactorizeOrdered is the one-call convenience used throughout the
// harness: reorder a by o, run symbolic + numeric decomposition into a
// fresh static container, and return a ready Solver.
func FactorizeOrdered(a *sparse.CSR, o sparse.Ordering) (*Solver, error) {
	ao := a.Permute(o)
	sym := Symbolic(ao.Pattern())
	f := NewStaticFactors(sym)
	if err := f.Factorize(ao); err != nil {
		return nil, err
	}
	return &Solver{F: f, O: o}, nil
}
