package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/order"
)

// RunQC executes the LUDEM-QC variants of §5 on a symmetric sequence: alg
// must be CINC or CLUDE, and beta is the quality requirement of
// Definition 5 (every matrix's ordering must satisfy
// ql(O_i, A_i) ≤ β, with ql measured against the fast symmetric
// |s̃p(A*)| reference).
//
// The β-clustering pass necessarily interleaves clustering with
// MinDegree ordering runs (Algorithms 4–5), so its full cost is
// reported under Times.Clustering; Times.Ordering stays zero. Workers
// and OnFactors behave exactly as in Run (see the package
// documentation): β-clusters are factored concurrently and callbacks
// still fire in snapshot order.
//
// The β-clustering needs every matrix's pattern at once, so RunQC holds
// the patterns, and reads the matrices its chains open at a second time.
func RunQC(seq graph.Sequence, alg Algorithm, beta float64, opt Options) (*Result, error) {
	if alg != CINC && alg != CLUDE {
		return nil, fmt.Errorf("core: RunQC supports CINC and CLUDE, not %q", alg)
	}
	return execute(seq, alg, opt, betaPlanner{
		label:    string(alg) + "-QC",
		beta:     beta,
		useUnion: alg == CLUDE,
		star:     opt.StarSizes,
	})
}

// StarSizes computes the reference |s̃p(A_i*)| series, the
// denominators of every quality-loss figure: Markowitz per matrix, as
// BF does, so the integers are BF's SSPSizes. On a symmetric pattern
// Markowitz takes the symmetric elimination of paper §3 on its own.
func StarSizes(seq graph.Sequence) []int {
	out := make([]int, seq.Len())
	for i := range out {
		out[i] = order.Markowitz(seq.Matrix(i).Pattern()).SSPSize
	}
	return out
}
