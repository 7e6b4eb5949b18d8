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
// Symmetric matrices. Each stage detects symmetry in what it is given
// and takes a route that does half the work for the same result; no
// caller asks for it. SymbolicSize counts a symmetric pattern under a
// symmetric ordering through the elimination tree instead of running
// the closure, and StaticFactors.FactorizeWith, given a bitwise
// symmetric matrix on a structure that is its own transpose, computes L
// alone and copies it into U. Both give the same integers and bits as
// the general route.
//
// Two factor containers are provided:
//
//   - StaticFactors: all index structure frozen up front from a
//     symbolic pattern (possibly a cluster-wide USSP as in CLUDE);
//     numeric phases and incremental updates only touch value arrays.
//     Its cross views (L by rows, U by columns) belong to the container
//     that is written: a clone or a decoded copy holds none and builds
//     them on demand (EnsureCrossViews).
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
// everything else: it takes one right-hand side (a support list or a
// dense vector) and one SolveWorkspace, checks the input, and runs one
// SolveInPlace on the permuted vector; a caller states nothing about
// the factors. Both entry points share the permute/solve/scatter code,
// so they return the same bits.
package lu
