// Package order implements the fill-reducing matrix orderings the
// paper relies on: the Markowitz strategy (Markowitz 1957), the
// symmetric minimum-degree strategy used for the LUDEM-QC problem, and
// the natural (identity) ordering used as an ablation baseline.
//
// Both Markowitz and MinDegree perform a full symbolic elimination, so
// besides the ordering itself they return the symbolic sparsity pattern
// s̃p(A^O) of the reordered matrix — each pivot's active row and column
// are U's row and L's column of that pivot — and its size, at no extra
// cost: a caller that goes on to factorize under the ordering it just
// asked for builds its container from Result.Symbolic instead of
// eliminating a second time. For Markowitz the size is |s̃p(A*)| — the
// denominator of the paper's quality-loss measure (Definition 4) —
// which is why the BF baseline can score every other algorithm's
// orderings essentially for free.
//
// On a structurally symmetric pattern (sparse.Pattern.Symmetric) the
// Markowitz cost r·c is the minimum-degree cost d², so Markowitz runs
// the symmetric elimination MinDegree runs — one list per vertex — and
// returns the same ordering, size and structure the general elimination
// would. That is the paper's "very efficient, no physical decomposition"
// route to |s̃p(A*)| for symmetric matrices (§3), taken by the BF
// baseline and every symmetric run without the caller asking for it.
// MinDegree, used by the LUDEM-QC algorithms, symmetrizes an
// unsymmetric pattern first.
package order

import (
	"repro/internal/lu"
	"repro/internal/sparse"
)

// Result is the outcome of an ordering computation.
type Result struct {
	// Ordering is the paper's O = (P, Q). Markowitz and MinDegree use
	// diagonal pivots, so the row and column permutations are the same
	// vertex sequence.
	Ordering sparse.Ordering
	// SSPSize is |s̃p(A^O)| — the symbolic sparsity pattern size of the
	// reordered matrix, including the diagonal.
	SSPSize int
	// Symbolic is s̃p(A^O) itself, equal to lu.Symbolic(p.Permute(O)) for
	// the pattern p that was ordered (MinDegree: p symmetrized), in the
	// form lu.NewStaticFactors consumes.
	Symbolic *lu.SymbolicLU
}

// Natural returns the identity ordering together with its symbolic
// size. It is the "do nothing" baseline for ordering-quality ablations.
func Natural(p *sparse.Pattern) Result {
	return given(p, sparse.IdentityOrdering(p.N()))
}

// given scores an ordering that was not found by elimination.
func given(p *sparse.Pattern, o sparse.Ordering) Result {
	sym := lu.Symbolic(p.Permute(o))
	return Result{Ordering: o, SSPSize: sym.Size(), Symbolic: sym}
}
