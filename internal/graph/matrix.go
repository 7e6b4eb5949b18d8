package graph

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Adjacency is what a Deriver reads of a graph state: a snapshot
// (*Graph), the live accumulator (*Builder), or the accumulator as it
// stood before its last batch (Builder.Before). For undirected states
// OutNeighbors(u) lists every neighbour of u, so its length is u's
// degree.
type Adjacency interface {
	N() int
	Directed() bool
	// OutNeighbors returns u's sorted out-neighbours; the slice must not
	// be modified.
	OutNeighbors(u int) []int
}

// Deriver defines the matrix A of the linear system A·x = b of some
// graph measure, one column at a time. Derive maps the definition over
// every column of a snapshot (the paper's EMS is Derive mapped over an
// EGS); the streaming engine evaluates only the columns an edge batch
// dirtied, before and after the batch. Both go through Column, so a
// streamed matrix and a derived one cannot round differently.
//
// A Deriver must be a pure function of the adjacency it is shown:
// WAL replay and recovery rest on it.
type Deriver interface {
	// Column appends column i of A to rows and vals — the row indices of
	// its stored entries in ascending order, and their values — and
	// returns the grown slices.
	Column(g Adjacency, i int, rows []int, vals []float64) ([]int, []float64)
	// Dirty calls mark for every column that may differ between a state
	// without the edge (u, v) and g, a state with it (or the other way
	// round), given in storage orientation (u < v when undirected).
	// Marking too much is harmless — an unchanged column diffs to
	// nothing — and marking a column twice is fine.
	Dirty(g Adjacency, u, v int, mark func(col int))
}

// Derive materializes d's whole matrix for the state g: the columns,
// appended one after the other, are the matrix stored by columns —
// the transpose's rows — and transposing gives every row its entries in
// ascending column order with nothing to sort.
func Derive(d Deriver, g Adjacency) *sparse.CSR {
	n := g.N()
	nnz := n // the diagonal, plus one entry per neighbour: exact for the derivers here
	for u := 0; u < n; u++ {
		nnz += len(g.OutNeighbors(u))
	}
	colPtr := make([]int, n+1)
	rows, vals := make([]int, 0, nnz), make([]float64, 0, nnz)
	for i := 0; i < n; i++ {
		rows, vals = d.Column(g, i, rows, vals)
		colPtr[i+1] = len(rows)
	}
	at, err := sparse.CSRFromArrays(n, colPtr, rows, vals)
	if err != nil {
		panic(fmt.Sprintf("graph: deriver broke the Column contract: %v", err))
	}
	return at.Transpose()
}

// column appends one column whose off-diagonal entries sit on the
// neighbour rows and all hold off, with diag on the diagonal, keeping
// the rows ascending.
func column(nbrs []int, i int, diag, off float64, rows []int, vals []float64) ([]int, []float64) {
	k := sort.SearchInts(nbrs, i)
	rows = append(append(append(rows, nbrs[:k]...), i), nbrs[k:]...)
	for range nbrs[:k] {
		vals = append(vals, off)
	}
	vals = append(vals, diag)
	for range nbrs[k:] {
		vals = append(vals, off)
	}
	return rows, vals
}

// RWRMatrix returns a Deriver producing A = I − d·W, where W is the
// column-normalized adjacency matrix of the snapshot: if (i, j) is an
// edge then W(j, i) = 1/λ(i) with λ(i) the out-degree of i (footnote 1
// of the paper). Columns of dangling vertices (out-degree 0) are zero
// apart from the unit diagonal, which corresponds to the random walk
// halting at sinks. With 0 < d < 1 the matrix is strictly diagonally
// dominant by columns, hence non-singular and safely factorizable
// without pivoting.
func RWRMatrix(d float64) Deriver {
	if d <= 0 || d >= 1 {
		panic(fmt.Sprintf("graph: damping factor %v outside (0,1)", d))
	}
	return rwr{d}
}

type rwr struct{ d float64 }

func (m rwr) Column(g Adjacency, i int, rows []int, vals []float64) ([]int, []float64) {
	out := g.OutNeighbors(i)
	// W(j, i) = 1/λ(i), so A(j, i) = −d/λ(i); a dangling vertex has no
	// off-diagonal entry to give the quotient to.
	w := m.d / float64(len(out))
	return column(out, i, 1, -w, rows, vals)
}

// An edge out of u renormalizes column u, and nothing else.
func (rwr) Dirty(g Adjacency, u, v int, mark func(int)) {
	mark(u)
	if !g.Directed() {
		mark(v)
	}
}

// SymmetricWalkMatrix returns a Deriver producing the symmetric matrix
// A = I − d·Ŵ with Ŵ(i, j) = Ŵ(j, i) = 1/max(λ(i), λ(j)) for each
// undirected edge {i, j}. Row sums of Ŵ are at most 1, so A is strictly
// diagonally dominant and symmetric — the setting required by the
// LUDEM-QC problem (Definition 5). This is the standard "maximum
// degree" symmetric normalization of a random walk kernel.
func SymmetricWalkMatrix(d float64) Deriver {
	if d <= 0 || d >= 1 {
		panic(fmt.Sprintf("graph: damping factor %v outside (0,1)", d))
	}
	return symmetricWalk{d}
}

type symmetricWalk struct{ d float64 }

func (m symmetricWalk) Column(g Adjacency, i int, rows []int, vals []float64) ([]int, []float64) {
	if g.Directed() {
		panic("graph: SymmetricWalkMatrix requires an undirected graph")
	}
	nbrs := g.OutNeighbors(i)
	at := len(rows)
	rows, vals = column(nbrs, i, 1, 0, rows, vals)
	for p := at; p < len(rows); p++ {
		if j := rows[p]; j != i {
			vals[p] = -m.d / float64(max(len(nbrs), len(g.OutNeighbors(j))))
		}
	}
	return rows, vals
}

// An edge changes both endpoints' degrees, which every entry shared
// with a neighbour is normalized by.
func (symmetricWalk) Dirty(g Adjacency, u, v int, mark func(int)) {
	for _, x := range [2]int{u, v} {
		mark(x)
		for _, j := range g.OutNeighbors(x) {
			mark(j)
		}
	}
}

// LaplacianMatrix returns a Deriver producing the shifted graph
// Laplacian A = L + εI = D − W + εI of an undirected snapshot, a
// symmetric positive definite matrix commonly used in spectral and
// diffusion computations. ε > 0 keeps A non-singular.
func LaplacianMatrix(eps float64) Deriver {
	if eps <= 0 {
		panic("graph: LaplacianMatrix requires eps > 0")
	}
	return laplacian{eps}
}

type laplacian struct{ eps float64 }

func (m laplacian) Column(g Adjacency, i int, rows []int, vals []float64) ([]int, []float64) {
	if g.Directed() {
		panic("graph: LaplacianMatrix requires an undirected graph")
	}
	nbrs := g.OutNeighbors(i)
	return column(nbrs, i, float64(len(nbrs))+m.eps, -1, rows, vals)
}

func (laplacian) Dirty(g Adjacency, u, v int, mark func(int)) {
	mark(u)
	mark(v)
}

// Sequence is an evolving matrix sequence M = {A1, …, AT} read one
// matrix at a time, so a reader that goes front to back need hold no
// more of it than it keeps. Matrix(i), for 0 ≤ i < Len(), returns A_i;
// the caller must not modify it, and every call for the same i returns
// the same bits. Implementations are safe for concurrent use.
type Sequence interface {
	Len() int
	N() int
	Matrix(i int) *sparse.CSR
}

// EMS is an evolving matrix sequence held whole: the image of an EGS
// under a Deriver.
type EMS struct {
	Matrices []*sparse.CSR
}

// DeriveEMS maps d over the EGS snapshots.
func DeriveEMS(s *EGS, d Deriver) *EMS {
	ms := make([]*sparse.CSR, s.Len())
	for i, g := range s.Snapshots {
		ms[i] = Derive(d, g)
	}
	return &EMS{Matrices: ms}
}

// Len returns the number of matrices T.
func (m *EMS) Len() int { return len(m.Matrices) }

// N returns the shared dimension.
func (m *EMS) N() int { return m.Matrices[0].N() }

// Matrix returns A_i.
func (m *EMS) Matrix(i int) *sparse.CSR { return m.Matrices[i] }
