package lu

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Factors is the common interface of the two factor containers: enough
// to solve systems, to measure structural size, and to snapshot the
// numeric state for retention beyond the engine's in-place updates.
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
// SolveRHS is the workspace-taking entry point for one right-hand side
// given densely or as a support list. Both run the same
// permute/solve/scatter code.
//
// O must not be replaced after the first support-list solve: it caches
// the inverse row permutation on first use (concurrent solves on one
// Solver are safe; the factor containers are only read).
type Solver struct {
	F Factors
	O sparse.Ordering

	// Lazily built support-list plumbing (see prep).
	prepOnce sync.Once
	rowInv   sparse.Perm
}

// Solve returns x with A·x = b, leaving b untouched.
func (s *Solver) Solve(b []float64) []float64 {
	r := RHS{B: b}
	s.solve(&r, make([]float64, s.F.Dim()))
	return r.X
}

// Clone copies the factors (Factors.Clone) so the returned solver stays
// valid after the original's factors are updated in place. The ordering
// is shared: it is immutable once constructed.
func (s *Solver) Clone() *Solver {
	return &Solver{F: s.F.Clone(), O: s.O}
}

// RHS is the right-hand side of a SolveRHS call and, after the call,
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

// SolveRHS solves A·x = b for r, writing the solution into r.X: one
// SolveInPlace on the permuted right-hand side (a support list is
// scattered into the permuted vector first). The permuted vector is
// the workspace's, so a reused workspace allocates nothing beyond an X
// without capacity.
//
// It panics when a dense right-hand side's length is not the system
// dimension, a support list's Idx and Val differ in length, or a
// support index lies outside [0, n).
func (s *Solver) SolveRHS(r *RHS, ws *SolveWorkspace) {
	s.solve(r, ws.vector(s.F.Dim()))
}

// checkRHS is the one input check of both entry points.
func checkRHS(r *RHS, n int) {
	if r.B != nil {
		if len(r.B) != n {
			panic(fmt.Sprintf("lu: right-hand side has length %d, system dimension is %d", len(r.B), n))
		}
		return
	}
	if len(r.Idx) != len(r.Val) {
		panic(fmt.Sprintf("lu: right-hand side has %d support indices but %d values", len(r.Idx), len(r.Val)))
	}
	for _, u := range r.Idx {
		if u < 0 || u >= n {
			panic(fmt.Sprintf("lu: right-hand side has support index %d outside [0,%d)", u, n))
		}
	}
}

// prep lazily builds the inverse row permutation shared by every
// support-list solve on this solver, so permuting a support list costs
// O(|support|), not O(n).
func (s *Solver) prep() {
	s.prepOnce.Do(func() {
		s.rowInv = s.O.Row.Inverse()
	})
}

// solve is the one permute/solve/scatter path: permute r's right-hand
// side into the scratch vector w of the system dimension (b' = P·b),
// run SolveInPlace on it, and scatter the solution into r.X
// (x = Q·x').
func (s *Solver) solve(r *RHS, w []float64) {
	checkRHS(r, len(w))
	if b := r.B; b != nil {
		for i, v := range s.O.Row {
			w[i] = b[v]
		}
	} else {
		s.prep()
		for i := range w {
			w[i] = 0
		}
		for i, u := range r.Idx {
			w[s.rowInv[u]] += r.Val[i]
		}
	}
	s.F.SolveInPlace(w)
	x := r.X
	if cap(x) < len(w) {
		x = make([]float64, len(w))
	}
	x = x[:len(w)]
	for i, v := range s.O.Col {
		x[v] = w[i]
	}
	r.X = x
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
