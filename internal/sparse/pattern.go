package sparse

import "sort"

// Pattern is an immutable sparsity pattern: the set sp(A) of (row, col)
// positions holding explicit entries, stored row-compressed with sorted
// column indices.
type Pattern struct {
	n      int
	rowPtr []int
	colIdx []int
}

// NewPattern builds a pattern from coordinate pairs (duplicates are
// merged).
func NewPattern(n int, coords []Coord) *Pattern {
	rows := make([][]int, n)
	for _, c := range coords {
		rows[c.Row] = append(rows[c.Row], c.Col)
	}
	rowPtr := make([]int, n+1)
	var colIdx []int
	for i := 0; i < n; i++ {
		sort.Ints(rows[i])
		prev := -1
		for _, j := range rows[i] {
			if j != prev {
				colIdx = append(colIdx, j)
				prev = j
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Pattern{n: n, rowPtr: rowPtr, colIdx: colIdx}
}

// Coord is a (row, col) position.
type Coord struct{ Row, Col int }

// N returns the pattern's matrix dimension.
func (p *Pattern) N() int { return p.n }

// Size returns |sp(A)|, the number of positions in the pattern.
func (p *Pattern) Size() int { return len(p.colIdx) }

// Row returns the sorted column indices of row i; the slice aliases
// internal storage.
func (p *Pattern) Row(i int) []int {
	return p.colIdx[p.rowPtr[i]:p.rowPtr[i+1]]
}

// Has reports whether (i, j) is in the pattern.
func (p *Pattern) Has(i, j int) bool {
	row := p.Row(i)
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// Symmetric reports whether the pattern equals its transpose. Rows are
// walked in order with one cursor per row j: entry (i, j) must find
// column i at row j's cursor, which then moves past it. A cursor left
// on a column c < i means (c, j) is missing. Every entry is consumed
// once, so the walk is O(n + nnz) and stops at the first mismatch.
func (p *Pattern) Symmetric() bool {
	next := make([]int, p.n)
	copy(next, p.rowPtr[:p.n])
	for i := 0; i < p.n; i++ {
		for _, j := range p.Row(i) {
			c := next[j]
			if c == p.rowPtr[j+1] || p.colIdx[c] != i {
				return false
			}
			next[j] = c + 1
		}
	}
	return true
}

// Union returns the set union of two patterns.
func (p *Pattern) Union(q *Pattern) *Pattern {
	if p.n != q.n {
		panic("sparse: Pattern.Union dimension mismatch")
	}
	rowPtr := make([]int, p.n+1)
	colIdx := make([]int, 0, max(len(p.colIdx), len(q.colIdx)))
	for i := 0; i < p.n; i++ {
		a, b := p.Row(i), q.Row(i)
		ka, kb := 0, 0
		for ka < len(a) || kb < len(b) {
			switch {
			case kb >= len(b) || (ka < len(a) && a[ka] < b[kb]):
				colIdx = append(colIdx, a[ka])
				ka++
			case ka >= len(a) || b[kb] < a[ka]:
				colIdx = append(colIdx, b[kb])
				kb++
			default:
				colIdx = append(colIdx, a[ka])
				ka++
				kb++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Pattern{n: p.n, rowPtr: rowPtr, colIdx: colIdx}
}

// Intersect returns the set intersection of two patterns.
func (p *Pattern) Intersect(q *Pattern) *Pattern {
	if p.n != q.n {
		panic("sparse: Pattern.Intersect dimension mismatch")
	}
	rowPtr := make([]int, p.n+1)
	var colIdx []int
	for i := 0; i < p.n; i++ {
		a, b := p.Row(i), q.Row(i)
		ka, kb := 0, 0
		for ka < len(a) && kb < len(b) {
			switch {
			case a[ka] < b[kb]:
				ka++
			case b[kb] < a[ka]:
				kb++
			default:
				colIdx = append(colIdx, a[ka])
				ka++
				kb++
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Pattern{n: p.n, rowPtr: rowPtr, colIdx: colIdx}
}

// IntersectSize returns |sp(P) ∩ sp(Q)| without materializing the
// intersection.
func (p *Pattern) IntersectSize(q *Pattern) int {
	if p.n != q.n {
		panic("sparse: Pattern.IntersectSize dimension mismatch")
	}
	total := 0
	for i := 0; i < p.n; i++ {
		a, b := p.Row(i), q.Row(i)
		ka, kb := 0, 0
		for ka < len(a) && kb < len(b) {
			switch {
			case a[ka] < b[kb]:
				ka++
			case b[kb] < a[ka]:
				kb++
			default:
				total++
				ka++
				kb++
			}
		}
	}
	return total
}

// Subset reports whether every position of p is also in q.
func (p *Pattern) Subset(q *Pattern) bool {
	return p.IntersectSize(q) == p.Size()
}

// Equal reports set equality of two patterns.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.n != q.n || p.Size() != q.Size() {
		return false
	}
	for i := range p.colIdx {
		if p.colIdx[i] != q.colIdx[i] {
			return false
		}
	}
	for i := 0; i <= p.n; i++ {
		if p.rowPtr[i] != q.rowPtr[i] {
			return false
		}
	}
	return true
}

// With returns p ∪ add for positions add, none of them in p, given in
// row-major order; Without returns p ∖ drop for positions drop, all of
// them in p, in the same order. Both copy the untouched stretches of the
// index array whole — the incremental cluster tracker's way of moving a
// bounding pattern by the handful of positions a batch changed.
func (p *Pattern) With(add []Coord) *Pattern { return p.edit(add, true) }

// Without is With's inverse; see there.
func (p *Pattern) Without(drop []Coord) *Pattern { return p.edit(drop, false) }

func (p *Pattern) edit(coords []Coord, insert bool) *Pattern {
	size := len(p.colIdx) - len(coords)
	if insert {
		size = len(p.colIdx) + len(coords)
	}
	rowPtr := make([]int, p.n+1)
	colIdx := make([]int, 0, size)
	from := 0 // p.colIdx[:from] is dealt with
	for _, c := range coords {
		row := p.Row(c.Row)
		k := p.rowPtr[c.Row] + sort.SearchInts(row, c.Col)
		colIdx = append(colIdx, p.colIdx[from:k]...)
		from = k
		if insert {
			colIdx = append(colIdx, c.Col)
		} else {
			from++
		}
	}
	colIdx = append(colIdx, p.colIdx[from:]...)
	// Row i starts where it did, shifted by the edits in earlier rows.
	shift, k := 0, 0
	for i := 0; i < p.n; i++ {
		rowPtr[i] = p.rowPtr[i] + shift
		for ; k < len(coords) && coords[k].Row == i; k++ {
			if insert {
				shift++
			} else {
				shift--
			}
		}
	}
	rowPtr[p.n] = len(colIdx)
	return &Pattern{n: p.n, rowPtr: rowPtr, colIdx: colIdx}
}

// Coords returns all positions of the pattern in row-major order.
func (p *Pattern) Coords() []Coord {
	out := make([]Coord, 0, p.Size())
	for i := 0; i < p.n; i++ {
		for _, j := range p.Row(i) {
			out = append(out, Coord{i, j})
		}
	}
	return out
}

// Permute returns the pattern of P·A·Q for ordering o, mirroring
// CSR.Permute.
func (p *Pattern) Permute(o Ordering) *Pattern {
	colNewOf := o.Col.Inverse()
	rowPtr := make([]int, p.n+1)
	colIdx := make([]int, 0, p.Size())
	for i := 0; i < p.n; i++ {
		old := o.Row[i]
		row := p.Row(old)
		start := len(colIdx)
		for _, j := range row {
			colIdx = append(colIdx, colNewOf[j])
		}
		sort.Ints(colIdx[start:])
		rowPtr[i+1] = len(colIdx)
	}
	return &Pattern{n: p.n, rowPtr: rowPtr, colIdx: colIdx}
}

// MES computes the matrix edit similarity of Definition 6:
//
//	mes(Aa, Ab) = 2·|sp(Aa) ∩ sp(Ab)| / (|sp(Aa)| + |sp(Ab)|)
//
// It is 1 for identical patterns and 0 for disjoint ones. Two empty
// patterns are defined to have similarity 1.
func MES(a, b *Pattern) float64 {
	return MESOfSizes(a.IntersectSize(b), a.Size(), b.Size())
}

// MESOfSizes is MES for callers that know the three set sizes without
// holding the patterns: common = |sp(Aa) ∩ sp(Ab)|.
func MESOfSizes(common, sizeA, sizeB int) float64 {
	if sizeA+sizeB == 0 {
		return 1
	}
	return 2 * float64(common) / float64(sizeA+sizeB)
}
