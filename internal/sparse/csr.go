package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// CSR is an immutable square sparse matrix in compressed-sparse-row
// format. Rows are sorted by column index and contain no duplicates.
// Explicit zeros are permitted and participate in the sparsity pattern.
type CSR struct {
	n      int
	rowPtr []int
	colIdx []int
	vals   []float64
}

// NewCSRFromEntries builds a CSR directly from an entry list, summing
// duplicates.
func NewCSRFromEntries(n int, entries []Entry) *CSR {
	c := NewCOO(n)
	c.entries = append(c.entries, entries...)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of range [0,%d)", e.Row, e.Col, n))
		}
	}
	return c.ToCSR()
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *CSR {
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = i + 1
		colIdx[i] = i
		vals[i] = 1
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// N returns the matrix dimension.
func (m *CSR) N() int { return m.n }

// NNZ returns the number of stored entries (pattern size |sp(A)|,
// including explicit zeros).
func (m *CSR) NNZ() int { return len(m.colIdx) }

// Row returns the column indices and values of row i. The returned
// slices alias internal storage and must not be modified.
func (m *CSR) Row(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// At returns the value at (i, j), or 0 if the position is not stored.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Has reports whether (i, j) is in the stored pattern.
func (m *CSR) Has(i, j int) bool {
	cols, _ := m.Row(i)
	k := sort.SearchInts(cols, j)
	return k < len(cols) && cols[k] == j
}

// Pattern returns the sparsity pattern sp(A) of the matrix. The pattern
// shares the matrix's index storage.
func (m *CSR) Pattern() *Pattern {
	return &Pattern{n: m.n, rowPtr: m.rowPtr, colIdx: m.colIdx}
}

// Transpose returns the transpose as a new CSR.
func (m *CSR) Transpose() *CSR {
	n := m.n
	cnt := make([]int, n+1)
	for _, j := range m.colIdx {
		cnt[j+1]++
	}
	for i := 0; i < n; i++ {
		cnt[i+1] += cnt[i]
	}
	colIdx := make([]int, len(m.colIdx))
	vals := make([]float64, len(m.vals))
	next := make([]int, n)
	copy(next, cnt[:n])
	for i := 0; i < n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := m.colIdx[k]
			p := next[j]
			colIdx[p] = i
			vals[p] = m.vals[k]
			next[j]++
		}
	}
	// Rows of the transpose come out already sorted because we scanned
	// source rows in increasing order.
	return &CSR{n: n, rowPtr: cnt, colIdx: colIdx, vals: vals}
}

// Permute returns A^O = P·A·Q for the ordering o, i.e. the matrix B
// with B(i, j) = A(o.Row[i], o.Col[j]).
func (m *CSR) Permute(o Ordering) *CSR {
	return m.PermuteInv(o, o.Col.Inverse())
}

// PermuteInv is Permute with a caller-supplied inverse column
// permutation colNewOf (old→new, i.e. o.Col.Inverse()). Cluster loops
// that permute a whole run of matrices by one shared ordering compute
// the inverse once instead of once per matrix.
func (m *CSR) PermuteInv(o Ordering, colNewOf Perm) *CSR {
	n := m.n
	if len(o.Row) != n || len(o.Col) != n || len(colNewOf) != n {
		panic("sparse: ordering dimension mismatch")
	}
	rowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		old := o.Row[i]
		rowPtr[i+1] = rowPtr[i] + (m.rowPtr[old+1] - m.rowPtr[old])
	}
	colIdx := make([]int, len(m.colIdx))
	vals := make([]float64, len(m.vals))
	for i := 0; i < n; i++ {
		old := o.Row[i]
		lo, hi := m.rowPtr[old], m.rowPtr[old+1]
		w := rowPtr[i]
		seg := colIdx[w : w+(hi-lo)]
		segv := vals[w : w+(hi-lo)]
		for k := lo; k < hi; k++ {
			seg[k-lo] = colNewOf[m.colIdx[k]]
			segv[k-lo] = m.vals[k]
		}
		sortRow(seg, segv)
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// sortRow sorts one permuted row by column, carrying the values along.
// A permuted row has no duplicate columns, so every correct sort gives
// the same row; graph matrices have short rows, which a plain insertion
// sort orders without the per-row allocation and interface calls of
// sort.Sort. The rare long row (a hub) still goes through sort.Sort.
func sortRow(idx []int, val []float64) {
	if len(idx) > 24 {
		sort.Sort(&pairSorter{idx, val})
		return
	}
	for i := 1; i < len(idx); i++ {
		j, v := idx[i], val[i]
		k := i
		for ; k > 0 && idx[k-1] > j; k-- {
			idx[k], val[k] = idx[k-1], val[k-1]
		}
		idx[k], val[k] = j, v
	}
}

// MulVec computes y = A·x into a new slice.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.n {
		panic("sparse: MulVec dimension mismatch")
	}
	y := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		s := 0.0
		for k := lo; k < hi; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
	return y
}

// Mul computes the sparse matrix product A·B (classic Gustavson
// row-by-row SpGEMM with a dense accumulator).
func (m *CSR) Mul(b *CSR) *CSR {
	if m.n != b.n {
		panic("sparse: Mul dimension mismatch")
	}
	n := m.n
	acc := make([]float64, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	rowCols := make([]int, 0, 64)
	for i := 0; i < n; i++ {
		rowCols = rowCols[:0]
		alo, ahi := m.rowPtr[i], m.rowPtr[i+1]
		for ka := alo; ka < ahi; ka++ {
			k := m.colIdx[ka]
			av := m.vals[ka]
			blo, bhi := b.rowPtr[k], b.rowPtr[k+1]
			for kb := blo; kb < bhi; kb++ {
				j := b.colIdx[kb]
				if mark[j] != i {
					mark[j] = i
					acc[j] = 0
					rowCols = append(rowCols, j)
				}
				acc[j] += av * b.vals[kb]
			}
		}
		sort.Ints(rowCols)
		for _, j := range rowCols {
			colIdx = append(colIdx, j)
			vals = append(vals, acc[j])
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Scale returns s·A as a new matrix sharing the pattern storage.
func (m *CSR) Scale(s float64) *CSR {
	vals := make([]float64, len(m.vals))
	for i, v := range m.vals {
		vals[i] = s * v
	}
	return &CSR{n: m.n, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals}
}

// Add returns A + B as a new matrix. The result pattern is the union of
// the operand patterns (explicit zeros from cancellation are kept).
func (m *CSR) Add(b *CSR) *CSR {
	if m.n != b.n {
		panic("sparse: Add dimension mismatch")
	}
	n := m.n
	rowPtr := make([]int, n+1)
	var colIdx []int
	var vals []float64
	for i := 0; i < n; i++ {
		ac, av := m.Row(i)
		bc, bv := b.Row(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				colIdx = append(colIdx, ac[ka])
				vals = append(vals, av[ka])
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				colIdx = append(colIdx, bc[kb])
				vals = append(vals, bv[kb])
				kb++
			default:
				colIdx = append(colIdx, ac[ka])
				vals = append(vals, av[ka]+bv[kb])
				ka++
				kb++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Sub returns A − B as a new matrix (union pattern).
func (m *CSR) Sub(b *CSR) *CSR { return m.Add(b.Scale(-1)) }

// Delta returns the entry list of B − A restricted to positions where
// the two matrices actually differ. This is the ∆A handed to Bennett's
// algorithm when stepping from A to B in an evolving matrix sequence.
func Delta(a, b *CSR) []Entry {
	var d StepDelta
	d.Diff(a, b)
	return d.Entries
}

// StepDelta is what changed from a matrix A to a matrix B, found in one
// row-by-row merge of the two: the value delta Entries (what Delta
// returns) and the pattern delta — the positions B stores and A does not
// (Added) and the other way round (Removed), explicit zeros included.
// All three are in row-major order.
type StepDelta struct {
	Entries        []Entry
	Added, Removed []Coord
}

// Diff overwrites d with the delta from a to b, reusing d's slices.
func (d *StepDelta) Diff(a, b *CSR) {
	if a.n != b.n {
		panic("sparse: Delta dimension mismatch")
	}
	d.Entries, d.Added, d.Removed = d.Entries[:0], d.Added[:0], d.Removed[:0]
	for i := 0; i < a.n; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				d.Removed = append(d.Removed, Coord{i, ac[ka]})
				if av[ka] != 0 {
					d.Entries = append(d.Entries, Entry{i, ac[ka], -av[ka]})
				}
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				d.Added = append(d.Added, Coord{i, bc[kb]})
				if bv[kb] != 0 {
					d.Entries = append(d.Entries, Entry{i, bc[kb], bv[kb]})
				}
				kb++
			default:
				if v := bv[kb] - av[ka]; v != 0 {
					d.Entries = append(d.Entries, Entry{i, ac[ka], v})
				}
				ka++
				kb++
			}
		}
	}
}

// PermuteEntries appends to dst the entries es moved into an ordering's
// index space — entry (r, c) to (rowNewOf[r], colNewOf[c]), the inverses
// of the ordering's two permutations — sorted row-major. For a value
// delta es = Delta(A, B) that is exactly Delta(A^O, B^O), in the work
// of the delta rather than of the two matrices.
func PermuteEntries(dst, es []Entry, rowNewOf, colNewOf Perm) []Entry {
	start := len(dst)
	for _, e := range es {
		dst = append(dst, Entry{rowNewOf[e.Row], colNewOf[e.Col], e.Val})
	}
	slices.SortFunc(dst[start:], func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	return dst
}

// Dense expands the matrix into a dense row-major n×n slice-of-slices.
// Intended for tests and tiny examples only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.n)
	for i := range d {
		d[i] = make([]float64, m.n)
		cols, vals := m.Row(i)
		for k, j := range cols {
			d[i][j] = vals[k]
		}
	}
	return d
}

// EqualApprox reports whether A and B agree entrywise within tol
// (comparing values, not patterns: an explicit zero equals an absent
// entry).
func (m *CSR) EqualApprox(b *CSR, tol float64) bool {
	if m.n != b.n {
		return false
	}
	for i := 0; i < m.n; i++ {
		ac, av := m.Row(i)
		bc, bv := b.Row(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				if math.Abs(av[ka]) > tol {
					return false
				}
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				if math.Abs(bv[kb]) > tol {
					return false
				}
				kb++
			default:
				if math.Abs(av[ka]-bv[kb]) > tol {
					return false
				}
				ka++
				kb++
			}
		}
	}
	return true
}

// IsSymmetric reports whether the matrix equals its transpose within
// tol on values (pattern asymmetries with zero values are tolerated).
func (m *CSR) IsSymmetric(tol float64) bool {
	return m.EqualApprox(m.Transpose(), tol)
}

// String renders small matrices for debugging; large matrices render as
// a summary line.
func (m *CSR) String() string {
	if m.n > 16 {
		return fmt.Sprintf("CSR{n=%d nnz=%d}", m.n, m.NNZ())
	}
	var sb strings.Builder
	d := m.Dense()
	for _, row := range d {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%7.3f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
