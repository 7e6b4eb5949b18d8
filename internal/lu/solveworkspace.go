package lu

// SolveWorkspace holds the scratch Solver.SolveRHS needs — the permuted
// intermediate vector of the substitution and one pooled right-hand
// side — so a steady-state serving worker allocates nothing per solve
// beyond the solution its caller keeps. The zero value is ready to
// use; a workspace must not be shared between concurrent solves but
// may be reused across solvers of different dimensions (capacity is
// kept on shrink: workers hop between snapshots).
type SolveWorkspace struct {
	w   []float64
	rhs RHS
}

// RHS returns the workspace's pooled right-hand side. It keeps what
// earlier calls left in it, so a caller that rebuilds Idx and Val with
// append(r.Idx[:0], …) and leaves a scratch vector in X reuses that
// capacity call after call.
func (ws *SolveWorkspace) RHS() *RHS {
	return &ws.rhs
}

// vector returns the scratch vector at dimension n, reusing capacity.
// Callers overwrite every position before reading it, so stale values
// are harmless.
func (ws *SolveWorkspace) vector(n int) []float64 {
	if cap(ws.w) < n {
		ws.w = make([]float64, n)
	}
	ws.w = ws.w[:n]
	return ws.w
}
