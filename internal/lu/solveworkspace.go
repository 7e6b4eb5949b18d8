package lu

import "repro/internal/sparse"

// SolveWorkspace holds every piece of scratch Solver.SolveRHS needs on
// any route — the reach traversals and the all-zero scatter vector of the
// reach-restricted solve, the permuted intermediate vectors of the
// dense and blocked substitutions, the interleave buffers of the panel
// kernels, and a pooled right-hand-side header — so a steady-state
// serving worker allocates nothing per solve beyond the solutions its
// caller keeps. The zero value is ready to use; a workspace must not be
// shared between concurrent solves but may be reused across block
// widths and across solvers of different dimensions (capacity is kept
// on shrink: workers hop between snapshots and batch widths jitter).
//
// Invariant: between calls, x is all-zero on every position it has ever
// exposed; the reach route restores this by re-zeroing exactly the rows
// it touched.
type SolveWorkspace struct {
	fwd, bwd sparse.ReachWorkspace
	x        []float64
	seeds    []int
	outIdx   []int
	outVal   []float64

	cols [][]float64

	pbuf []float64   // panel gather scratch (PanelSet.SolveBlockInPlace)
	lbuf []float64   // per-lane multiplier scratch for the panel kernels
	ibuf []int       // active-lane index scratch for the panel kernels
	obuf []int       // union-offset scratch for the backward panel sweep
	hbuf [][]float64 // lane-ordered RHS headers (panel interleave)

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

// dense returns the all-zero scatter vector of dimension n. Growing
// within capacity is safe: every previously exposed position was
// re-zeroed after the solve that touched it.
func (ws *SolveWorkspace) dense(n int) []float64 {
	if cap(ws.x) < n {
		ws.x = make([]float64, n)
	}
	ws.x = ws.x[:n]
	return ws.x
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

// scratch returns a float64 scratch slice of the given size, reusing
// capacity across calls. Callers overwrite before reading.
func (ws *SolveWorkspace) scratch(size int) []float64 {
	if cap(ws.pbuf) < size {
		ws.pbuf = make([]float64, size)
	}
	ws.pbuf = ws.pbuf[:size]
	return ws.pbuf
}

// lanes returns a k-length multiplier scratch for the panel kernels,
// reusing capacity. Callers overwrite before reading.
func (ws *SolveWorkspace) lanes(k int) []float64 {
	if cap(ws.lbuf) < k {
		ws.lbuf = make([]float64, k)
	}
	ws.lbuf = ws.lbuf[:k]
	return ws.lbuf
}

// list returns a zero-length int slice of capacity k (the active-lane
// list of the panel kernels), reusing capacity across calls.
func (ws *SolveWorkspace) list(k int) []int {
	if cap(ws.ibuf) < k {
		ws.ibuf = make([]int, k)
	}
	return ws.ibuf[:0]
}

// headers returns a k-length slice-header scratch (the lane-ordered
// view of the right-hand sides in the panel interleave), reusing
// capacity across calls. Callers overwrite before reading.
func (ws *SolveWorkspace) headers(k int) [][]float64 {
	if cap(ws.hbuf) < k {
		ws.hbuf = make([][]float64, k)
	}
	return ws.hbuf[:k]
}

// offsets returns an int scratch slice of the given size (the
// pre-scaled union column offsets of one panel's backward rows),
// reusing capacity across calls. Callers overwrite before reading.
func (ws *SolveWorkspace) offsets(size int) []int {
	if cap(ws.obuf) < size {
		ws.obuf = make([]int, size)
	}
	return ws.obuf[:size]
}
