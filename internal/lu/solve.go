package lu

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Factors is the common interface of the two factor containers: enough
// to solve systems (one right-hand side or a block), to measure
// structural size, and to snapshot the numeric state for retention
// beyond the engine's in-place updates.
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
// O must not be replaced after the first SolveRHS call: it caches the
// inverse row permutation on first use (concurrent solves on one Solver
// are safe; the factor containers are only read).
type Solver struct {
	F Factors
	O sparse.Ordering

	// Lazily built support-list plumbing (see prep).
	prepOnce sync.Once
	rowInv   sparse.Perm
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

	// X receives the solution: its capacity is reused (nil allocates)
	// and every position is overwritten. X may alias B — B is consumed
	// by the permutation before X is written.
	X []float64
}

// Route names the substitution strategy a SolveRHS call took. Every
// route yields the same bits — per right-hand side, each executes the
// floating-point operations of SolveInPlace in SolveInPlace's order —
// so the choice is purely an execution-schedule decision.
type Route string

const (
	// RouteDense is one full substitution (SolveInPlace).
	RouteDense Route = "dense"
	// RouteBlock is one traversal of the factors shared by all k
	// right-hand sides (Factors.SolveBlockInPlace).
	RouteBlock Route = "block"
)

// SolveRHS solves A·x = b for every right-hand side in rhs, writing
// each solution into its RHS, and returns the route it took from the
// block width alone:
//
//   - k = 1, support list or dense vector: RouteDense, one
//     SolveInPlace (a support list is scattered into the permuted
//     vector first).
//   - k ≥ 2: RouteBlock, one traversal of the factors shared by all k
//     (Factors.SolveBlockInPlace), on either container.
//
// It panics when a dense right-hand side's length is not the system
// dimension, a support list's Idx and Val differ in length, or a
// support index lies outside [0, n).
func (s *Solver) SolveRHS(rhs []RHS, ws *SolveWorkspace) Route {
	n := s.F.Dim()
	for r := range rhs {
		checkRHS(&rhs[r], r, n)
	}
	if len(rhs) == 0 {
		return ""
	}
	s.prep()
	s.solveBlock(rhs, ws)
	if len(rhs) == 1 {
		return RouteDense
	}
	return RouteBlock
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

// prep lazily builds the inverse row permutation shared by every
// SolveRHS call on this solver, so permuting a support list costs
// O(|support|), not O(n).
func (s *Solver) prep() {
	s.prepOnce.Do(func() {
		s.rowInv = s.O.Row.Inverse()
	})
}

// solveBlock is the full-substitution strategy for k ≥ 1 right-hand
// sides: permute each into a workspace vector, run one kernel over all
// of them — the container's block sweep for k ≥ 2, SolveInPlace for a
// lone vector — and scatter each solution into its X.
func (s *Solver) solveBlock(rhs []RHS, ws *SolveWorkspace) {
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
	if len(cols) == 1 {
		s.F.SolveInPlace(cols[0])
	} else {
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
