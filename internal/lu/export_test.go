package lu

// Test-only doors to the unexported strategies behind SolveRHS: the
// external property tests hold every route against Solve on inputs
// the dispatcher would have routed elsewhere.

// ForceBlock runs the scalar full-substitution strategy (SolveInPlace
// for one right-hand side, the container's block sweep for more).
func (s *Solver) ForceBlock(rhs []RHS, ws *SolveWorkspace) {
	s.prep()
	s.solveBlock(rhs, ws)
}

// SymbolicReference is the heap row merge the pruned Symbolic is held
// against, for the tests that also need order's eliminations.
var SymbolicReference = symbolicReference
