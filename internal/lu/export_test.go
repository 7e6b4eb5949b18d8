package lu

// Test-only doors to the unexported strategies behind SolveRHS: the
// external property tests hold every route against Solve on inputs
// the dispatcher would have routed elsewhere.

// ForceReach runs the reach-restricted strategy with an explicit cap
// (<= 0 unlimited), reporting whether the probe stayed within it.
func (s *Solver) ForceReach(r *RHS, maxReach int, ws *SolveWorkspace) bool {
	s.prep()
	return s.solveReach(r, maxReach, ws)
}

// ForceBlock runs the scalar full-substitution strategy (SolveInPlace
// for one right-hand side, the container's block sweep for more).
func (s *Solver) ForceBlock(rhs []RHS, ws *SolveWorkspace) {
	s.prep()
	s.solveBlock(rhs, nil, ws)
}

// ForcePanel runs the packed-panel strategy at any width, reporting
// false (and solving nothing) when the solver has no panel form.
func (s *Solver) ForcePanel(rhs []RHS, ws *SolveWorkspace) bool {
	s.prep()
	ps, _ := s.panelsBuild()
	if ps == nil {
		return false
	}
	s.solveBlock(rhs, ps, ws)
	return true
}

// PanelsBuild exposes the lazy pack and its built-by-this-call report.
func (s *Solver) PanelsBuild() (*PanelSet, bool) { return s.panelsBuild() }

// SymbolicReference is the heap row merge the pruned Symbolic is held
// against, for the tests that also need order's eliminations.
var SymbolicReference = symbolicReference
