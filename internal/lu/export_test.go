package lu

import "repro/internal/sparse"

// Test-only doors to unexported route choices: the external tests
// check which route FactorizeWith and SymbolicSize take on a
// pipeline's inputs.

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
