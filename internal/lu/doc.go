// Package lu implements sparse LU decomposition in the two-phase style
// the paper builds on (Duff, Erisman, Reid — "Direct Methods for Sparse
// Matrices"):
//
//  1. A symbolic decomposition (SD-phase) computes the fill-in pattern
//     fp(A) of Equation 2 and hence the symbolic sparsity pattern
//     s̃p(A) = sp(A) ∪ fp(A), which covers every position that can
//     become non-zero in the factors.
//  2. A numerical decomposition (ND-phase) computes the actual factor
//     values inside a structure prepared from the symbolic pattern.
//
// Factorization convention. We factor A = L·D·U with L unit lower
// triangular, D diagonal, and U unit upper triangular (Crout/LDU). The
// paper's L and U are recovered as L_paper = L·D and U_paper = U (or
// L·(DU) depending on normalization); the symbolic pattern and fill
// counts are identical, and the LDU form is the natural one for
// Bennett's incremental update. Pivots are fixed in advance by the
// ordering — the numeric phase never pivots, which is safe for the
// diagonally dominant matrices that evolving-graph measures produce and
// is exactly the model assumed by the paper. Singular or numerically
// tiny pivots are detected and reported as errors.
//
// Two factor containers are provided:
//
//   - StaticFactors: all index structure frozen up front from a
//     symbolic pattern (possibly a cluster-wide USSP as in CLUDE);
//     numeric phases and incremental updates only touch value arrays.
//   - DynamicFactors: per-column (L) and per-row (U) sorted
//     singly-linked adjacency lists, the structure the paper attributes
//     to the traditional incremental algorithm (INC/CINC); incremental
//     updates must scan and splice lists to insert new fill, which is
//     the dominating cost the paper profiles at ~70% of Bennett time.
//
// Solving. A Solver couples either container with its ordering and is
// the one way to solve A·x = b on maintained factors (§2.2:
// x = Q·solve(P·b)). Solver.Solve(b) is the allocating convenience for
// one dense right-hand side. Solver.SolveRHS is the entry point for
// everything else: it takes k ≥ 1 right-hand sides (support lists or
// dense vectors) and one SolveWorkspace, checks the input once, picks
// the substitution route itself — reach-restricted, dense, scalar
// block, or packed supernodal panels — from the support's capped reach
// probe, k, the container type and the packed set's mean panel width,
// and returns a Report naming the route. The thresholds are unexported
// constants beside the dispatcher in solve.go; the only thing a caller
// states is whether the factors are frozen. The kernels the routes run
// (SolveInPlace, SolveReachInPlace, SolveBlockInPlace on both
// containers, PanelSet.SolveBlockInPlace) are exported for the bench
// sweeps that justify those thresholds, and all of them execute, per
// right-hand side, the same floating-point operations in the same
// order, so every route returns the same bits.
package lu
