package graph

import (
	"fmt"
	"slices"
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

// DeltaWorkspace is BatchDelta's scratch, reused from call to call. Its
// zero value is ready; one workspace serves one caller at a time.
type DeltaWorkspace struct {
	dirty   []int
	isDirty []bool
	rows    [2][]int
	vals    [2][]float64
}

// BatchDelta fills out with what d's matrix of b gained from the batch
// b last applied: exactly what out.Diff(Derive(d, b.Before()),
// Derive(d, b)) fills in — the same entries in row-major order, the same
// Added and Removed, positions of explicit zeros included — in the work
// of the columns the batch's changed edges dirty. Each is evaluated
// before and after the batch and the two are diffed entry by entry with
// Diff's arithmetic, so the values carry its bits.
func BatchDelta(out *sparse.StepDelta, d Deriver, b *Builder, ws *DeltaWorkspace) {
	if len(ws.isDirty) != b.N() {
		ws.isDirty = make([]bool, b.N())
	}
	out.Entries, out.Added, out.Removed, ws.dirty = out.Entries[:0], out.Added[:0], out.Removed[:0], ws.dirty[:0]
	mark := func(col int) {
		if !ws.isDirty[col] {
			ws.isDirty[col] = true
			ws.dirty = append(ws.dirty, col)
		}
	}
	for _, ev := range b.Changed() {
		d.Dirty(b, ev.From, ev.To, mark)
	}
	before := b.Before()
	for _, col := range ws.dirty {
		ws.isDirty[col] = false
		ws.rows[0], ws.vals[0] = d.Column(before, col, ws.rows[0][:0], ws.vals[0][:0])
		ws.rows[1], ws.vals[1] = d.Column(b, col, ws.rows[1][:0], ws.vals[1][:0])
		or, ov, nr, nv := ws.rows[0], ws.vals[0], ws.rows[1], ws.vals[1]
		for ko, kn := 0, 0; ko < len(or) || kn < len(nr); {
			switch {
			case kn >= len(nr) || (ko < len(or) && or[ko] < nr[kn]):
				out.Removed = append(out.Removed, sparse.Coord{Row: or[ko], Col: col})
				if ov[ko] != 0 {
					out.Entries = append(out.Entries, sparse.Entry{Row: or[ko], Col: col, Val: -ov[ko]})
				}
				ko++
			case ko >= len(or) || nr[kn] < or[ko]:
				out.Added = append(out.Added, sparse.Coord{Row: nr[kn], Col: col})
				if nv[kn] != 0 {
					out.Entries = append(out.Entries, sparse.Entry{Row: nr[kn], Col: col, Val: nv[kn]})
				}
				kn++
			default:
				if v := nv[kn] - ov[ko]; v != 0 {
					out.Entries = append(out.Entries, sparse.Entry{Row: or[ko], Col: col, Val: v})
				}
				ko++
				kn++
			}
		}
	}
	slices.SortFunc(out.Entries, func(a, b sparse.Entry) int { return rowMajor(a.Row, a.Col, b.Row, b.Col) })
	byPosition := func(a, b sparse.Coord) int { return rowMajor(a.Row, a.Col, b.Row, b.Col) }
	slices.SortFunc(out.Added, byPosition)
	slices.SortFunc(out.Removed, byPosition)
}

// rowMajor compares positions (r1, c1) and (r2, c2) in row-major order.
// Indices are non-negative ints, so differences cannot overflow.
func rowMajor(r1, c1, r2, c2 int) int {
	if r1 != r2 {
		return r1 - r2
	}
	return c1 - c2
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
// matrix, or one step, at a time, so a reader that goes front to back
// need hold no more of it than it keeps. Matrix(i), for 0 ≤ i < Len(),
// returns A_i; the caller must not modify it, and every call for the
// same i returns the same bits. Step(i, d), for 1 ≤ i < Len(), fills d
// with A_i − A_{i−1} exactly as d.Diff(Matrix(i−1), Matrix(i)) would —
// the same entries in row-major order, the same Added and Removed — so
// a reader that needs only what changed never pays for a whole matrix.
// Implementations are safe for concurrent use.
type Sequence interface {
	Len() int
	N() int
	Matrix(i int) *sparse.CSR
	Step(i int, d *sparse.StepDelta)
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

// Step fills d with A_i − A_{i−1}, diffing the two matrices it holds.
func (m *EMS) Step(i int, d *sparse.StepDelta) { d.Diff(m.Matrices[i-1], m.Matrices[i]) }
