package lu

import "repro/internal/sparse"

// Test-only doors to unexported strategies and route choices: the
// external property tests hold every SolveRHS route against Solve on
// inputs the dispatcher would have routed elsewhere, and check which
// route FactorizeWith and SymbolicSize take on a pipeline's inputs.

// ForceBlock runs the scalar full-substitution strategy (SolveInPlace
// for one right-hand side, the container's block sweep for more).
func (s *Solver) ForceBlock(rhs []RHS, ws *SolveWorkspace) {
	s.prep()
	s.solveBlock(rhs, ws)
}

// SymbolicReference is the heap row merge the pruned Symbolic is held
// against, for the tests that also need order's eliminations.
var SymbolicReference = symbolicReference

// MirroredRoute reports whether FactorizeWith of a into f takes the
// mirrored Crout route (factorizeMirrored) rather than the general one.
func MirroredRoute(f *StaticFactors, a *sparse.CSR) bool {
	var ws Workspace
	ws.columns(a)
	return f.mirrorable(a, &ws)
}

// EtreeRoute reports whether SymbolicSize of p under o counts through
// the elimination tree rather than running the closure.
var EtreeRoute = etreeCounts
