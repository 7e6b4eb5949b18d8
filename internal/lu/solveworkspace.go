package lu

// SolveWorkspace holds every piece of scratch Solver.SolveRHS needs —
// the permuted intermediate vectors of the dense and blocked
// substitutions and a pooled right-hand-side header — so a steady-state
// serving worker allocates nothing per solve beyond the solutions its
// caller keeps. The zero value is ready to use; a workspace must not be
// shared between concurrent solves but may be reused across block
// widths and across solvers of different dimensions (capacity is kept
// on shrink: workers hop between snapshots and batch widths jitter).
type SolveWorkspace struct {
	cols [][]float64

	rhs []RHS
}

// RHS returns a pooled k-slot right-hand-side header for SolveRHS. The
// slots keep what earlier calls left in them, so a caller that rebuilds
// Idx and Val with append(slot.Idx[:0], …) and leaves a scratch vector
// in X reuses that capacity call after call.
func (ws *SolveWorkspace) RHS(k int) []RHS {
	if cap(ws.rhs) < k {
		next := make([]RHS, k)
		copy(next, ws.rhs[:cap(ws.rhs)])
		ws.rhs = next
	}
	ws.rhs = ws.rhs[:k]
	return ws.rhs
}

// vectors returns k scratch vectors of dimension n, reusing capacity.
// Callers overwrite every position before reading it, so stale values
// are harmless. The grow path copies up to capacity, not length, so
// vectors parked beyond a shrunken length survive the next growth
// instead of being reallocated.
func (ws *SolveWorkspace) vectors(k, n int) [][]float64 {
	if cap(ws.cols) < k {
		next := make([][]float64, k)
		copy(next, ws.cols[:cap(ws.cols)])
		ws.cols = next
	}
	ws.cols = ws.cols[:k]
	for r := range ws.cols {
		if cap(ws.cols[r]) < n {
			ws.cols[r] = make([]float64, n)
		}
		ws.cols[r] = ws.cols[r][:n]
	}
	return ws.cols
}
