package lu

import "repro/internal/sparse"

// SymbolicLU is the result of the SD-phase: the symbolic sparsity
// pattern s̃p(A) = sp(A) ∪ fp(A) of Equations 2–3, split into the
// strictly-lower (L) and strictly-upper (U) parts plus the implicit
// full diagonal. The pattern covers sp(Â) for the decomposed Â = L+U
// (paper §2.3), so factor storage prepared from it never needs to grow
// during the ND-phase.
type SymbolicLU struct {
	n     int
	lrows [][]int // per row i: sorted columns j < i with (i,j) in pattern
	urows [][]int // per row i: sorted columns j > i with (i,j) in pattern
}

// Symbolic runs the SD-phase on the pattern of an already-reordered
// matrix. The diagonal is always included in the symbolic pattern
// regardless of whether the input stores it.
//
// The algorithm is row-by-row fill propagation: the pattern of row i of
// the factors is the closure of sp(A(i,:)) under "merge U-row j for
// every j < i reachable so far", processed in increasing column order
// with a binary heap. This computes exactly the fill-in pattern of
// Equation 2 (paths through vertices with indices smaller than both
// endpoints).
func Symbolic(p *sparse.Pattern) *SymbolicLU {
	n := p.N()
	s := &SymbolicLU{
		n:     n,
		lrows: make([][]int, n),
		urows: make([][]int, n),
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var h sparse.MinHeap[column]
	var lr, ur []int // scratch: row i's lower and upper patterns as they pop
	for i := 0; i < n; i++ {
		h = h[:0]
		for _, j := range p.Row(i) {
			if mark[j] != i {
				mark[j] = i
				h = append(h, column(j))
			}
		}
		h.Init()
		lr, ur = lr[:0], ur[:0]
		for len(h) > 0 {
			j := int(h.Pop())
			switch {
			case j < i:
				lr = append(lr, j)
				for _, k := range s.urows[j] {
					if mark[k] != i {
						mark[k] = i
						h.Push(column(k))
					}
				}
			case j > i:
				ur = append(ur, j)
			}
			// j == i (the diagonal) is implicit.
		}
		// One exact-size array holds both halves of the row.
		row := append(make([]int, 0, len(lr)+len(ur)), lr...)
		row = append(row, ur...)
		s.lrows[i] = row[:len(lr):len(lr)]
		s.urows[i] = row[len(lr):]
	}
	return s
}

// SymbolicFromElimination assembles the symbolic pattern out of what a
// symbolic elimination sees on its way: lcol[k] holds the rows of pivot
// k's active column and urow[k] the columns of its active row when k is
// eliminated — exactly column k of L and row k of U — as pivot positions
// (all > k) in any order. An ordering that was computed by eliminating a
// pattern (order.Markowitz, order.MinDegree) therefore hands over the
// structure Symbolic would recompute from the permuted pattern, and the
// elimination is paid once. The lists are only read; they may alias each
// other (a symmetric elimination passes the same lists twice).
func SymbolicFromElimination(lcol, urow [][]int) *SymbolicLU {
	return &SymbolicLU{
		n:     len(lcol),
		lrows: transposeLists(lcol),
		urows: transposeLists(transposeLists(urow)),
	}
}

// transposeLists returns, for every index j, the ascending list of k
// with j in lists[k] — a counting sort, so transposing twice sorts each
// list. The result is carved from one array.
func transposeLists(lists [][]int) [][]int {
	n := len(lists)
	// Count into start[j+2]: after the prefix sum start[j+1] is list j's
	// write cursor, and ends as its end.
	start := make([]int, n+2)
	for _, l := range lists {
		for _, j := range l {
			start[j+2]++
		}
	}
	for j := 2; j <= n+1; j++ {
		start[j] += start[j-1]
	}
	back := make([]int, start[n+1])
	for k, l := range lists {
		for _, j := range l {
			back[start[j+1]] = k
			start[j+1]++
		}
	}
	out := make([][]int, n)
	for j := range out {
		out[j] = back[start[j]:start[j+1]:start[j+1]]
	}
	return out
}

// N returns the matrix dimension.
func (s *SymbolicLU) N() int { return s.n }

// LRow returns the sorted strictly-lower pattern of row i.
func (s *SymbolicLU) LRow(i int) []int { return s.lrows[i] }

// URow returns the sorted strictly-upper pattern of row i.
func (s *SymbolicLU) URow(i int) []int { return s.urows[i] }

// Size returns |s̃p(A)|: all strictly-lower and strictly-upper
// positions plus the n diagonal positions. This is the paper's quality
// quantity (Definitions 4–5 compare these sizes).
func (s *SymbolicLU) Size() int {
	total := s.n
	for i := 0; i < s.n; i++ {
		total += len(s.lrows[i]) + len(s.urows[i])
	}
	return total
}

// FillCount returns |fp(A)| = |s̃p(A)| − |sp(A) ∪ diag|: the number of
// fill-in positions introduced by elimination beyond the original
// pattern (with the diagonal counted as always present).
func (s *SymbolicLU) FillCount(orig *sparse.Pattern) int {
	fill := 0
	for i := 0; i < s.n; i++ {
		for _, j := range s.lrows[i] {
			if !orig.Has(i, j) {
				fill++
			}
		}
		for _, j := range s.urows[i] {
			if !orig.Has(i, j) {
				fill++
			}
		}
	}
	return fill
}

// Pattern materializes the full symbolic pattern (including the
// diagonal) as a sparse.Pattern.
func (s *SymbolicLU) Pattern() *sparse.Pattern {
	coords := make([]sparse.Coord, 0, s.Size())
	for i := 0; i < s.n; i++ {
		for _, j := range s.lrows[i] {
			coords = append(coords, sparse.Coord{Row: i, Col: j})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i})
		for _, j := range s.urows[i] {
			coords = append(coords, sparse.Coord{Row: i, Col: j})
		}
	}
	return sparse.NewPattern(s.n, coords)
}

// SymbolicSize is a convenience wrapper: |s̃p(A^O)| for matrix pattern
// p under ordering o. It is how the harness scores the quality of an
// ordering on a matrix (Definition 4) without numeric work.
func SymbolicSize(p *sparse.Pattern, o sparse.Ordering) int {
	return Symbolic(p.Permute(o)).Size()
}

// column is a column index in Symbolic's queue.
type column int

func (a column) Less(b column) bool { return a < b }
