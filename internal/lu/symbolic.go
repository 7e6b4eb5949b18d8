package lu

import (
	"slices"
	"sync"

	"repro/internal/sparse"
)

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
// The pattern of row i of the factors is the closure of sp(A(i,:))
// under "j < i reached ⇒ add U-row j": exactly the fill-in pattern of
// Equation 2 (paths through vertices with indices smaller than both
// endpoints). The closure reads each earlier U row only as far as its
// first structurally symmetric partner (Eisenstat–Liu pruning, see
// closure.run), and each row is sorted once at the end.
func Symbolic(p *sparse.Pattern) *SymbolicLU {
	c := closures.Get().(*closure)
	defer closures.Put(c)
	c.run(p, nil, nil, true)
	n := p.N()
	s := &SymbolicLU{
		n:     n,
		lrows: make([][]int, n),
		urows: make([][]int, n),
	}
	// One exact-size array holds every row, both halves sorted.
	back := make([]int, len(c.l)+len(c.u))
	for i := 0; i < n; i++ {
		nl := copy(back, c.l[c.lstart[i]:c.lstart[i+1]])
		nr := nl + copy(back[nl:], c.u[c.ustart[i]:c.ustart[i+1]])
		slices.Sort(back[:nl])
		slices.Sort(back[nl:nr])
		s.lrows[i] = back[:nl:nl]
		s.urows[i] = back[nl:nr:nr]
		back = back[nr:]
	}
	return s
}

// closures holds the scratch of Symbolic and SymbolicSize, so a caller
// that sizes one matrix after another (a cluster's members, the QC
// admission tests) reuses one set of arrays.
var closures = sync.Pool{New: func() any { return new(closure) }}

// closure is the scratch of the row-by-row pruned closure: the U rows
// and, when kept, the L rows, one after another in row order, each in
// the order the closure reached its columns.
type closure struct {
	mark   []int // mark[k] == i: column k is in row i's pattern
	prune  []int // later rows read U row j only as u[ustart[j]:][:prune[j]]
	u, l   []int
	ustart []int
	lstart []int
	work   []int // row i's reached columns below i, which is its L row
	colNew []int // SymbolicSize's inverse column permutation
	// SymbolicSize's elimination tree: parent links, and the
	// path-compressed ancestor links it is built through.
	parent, ancestor []int
}

// run computes s̃p of the matrix whose row i is row rowOld[i] of p with
// every column j renamed colNew[j] (nil for either: the identity) and
// returns its size, diagonal included. keepL keeps the L rows in
// l/lstart; the U rows are kept in u/ustart in any case, since later
// rows read them.
//
// Pruning (Eisenstat & Liu 1992): when row i reaches j < i and finds i
// in U row j, then L(i,j)·U(j,k) fills (i,k) for every k > i in U row j,
// so that part of U row j lies in U row i, and a later row that reaches
// j reaches i and through it the same columns. From then on later rows
// read U row j only up to and including i; row i itself reads it whole.
// The closure, and so the output, is unchanged; inside a full trailing
// block every U row prunes to its first column.
func (c *closure) run(p *sparse.Pattern, rowOld, colNew []int, keepL bool) int {
	n := p.N()
	mark := resize(c.mark, n)
	for k := range mark {
		mark[k] = -1
	}
	prune := resize(c.prune, n)
	ustart := resize(c.ustart, n+1)
	lstart := c.lstart
	if keepL {
		lstart = resize(lstart, n+1)
	}
	u, l, work := c.u[:0], c.l[:0], c.work
	size := n
	for i := 0; i < n; i++ {
		mark[i] = i // the diagonal is implicit
		ustart[i] = len(u)
		work = work[:0]
		src := i
		if rowOld != nil {
			src = rowOld[i]
		}
		for _, k := range p.Row(src) {
			if colNew != nil {
				k = colNew[k]
			}
			if mark[k] != i {
				mark[k] = i
				if k < i {
					work = append(work, k)
				} else {
					u = append(u, k)
				}
			}
		}
		for h := 0; h < len(work); h++ {
			j := work[h]
			symmetric := false
			// Row i grows u as it reads: a reallocation leaves this range
			// over the old array, whose rows below i are the same.
			for _, k := range u[ustart[j] : ustart[j]+prune[j]] {
				if mark[k] != i {
					mark[k] = i
					if k < i {
						work = append(work, k)
					} else {
						u = append(u, k)
					}
				} else if k == i {
					symmetric = true
				}
			}
			if symmetric {
				prune[j] = keepThrough(u[ustart[j]:ustart[j]+prune[j]], i)
			}
		}
		prune[i] = len(u) - ustart[i]
		size += len(work) + prune[i]
		if keepL {
			lstart[i] = len(l)
			l = append(l, work...)
		}
	}
	ustart[n] = len(u)
	if keepL {
		lstart[n] = len(l)
	}
	c.mark, c.prune, c.ustart, c.lstart = mark, prune, ustart, lstart
	c.u, c.l, c.work = u, l, work
	return size
}

// keepThrough moves the columns ≤ i of row to its front and returns how
// many there are.
func keepThrough(row []int, i int) int {
	w := 0
	for r, k := range row {
		if k <= i {
			row[w], row[r] = row[r], row[w]
			w++
		}
	}
	return w
}

// SymbolicFromElimination assembles the symbolic pattern out of what a
// symbolic elimination sees on its way: lcol[k] holds the rows of pivot
// k's active column and urow[k] the columns of its active row when k is
// eliminated — exactly column k of L and row k of U — as pivot positions
// (all > k) in any order. An ordering that was computed by eliminating a
// pattern (order.Markowitz, order.MinDegree) therefore hands over the
// structure Symbolic would recompute from the permuted pattern, and the
// elimination is paid once. The lists are only read.
//
// A symmetric elimination passes urow nil: its rows of U are its columns
// of L, so U's rows are L's rows transposed back, one transposition
// fewer than sorting urow.
func SymbolicFromElimination(lcol, urow [][]int) *SymbolicLU {
	lrows := transposeLists(lcol)
	var urows [][]int
	if urow == nil {
		urows = transposeLists(lrows)
	} else {
		urows = transposeLists(transposeLists(urow))
	}
	return &SymbolicLU{n: len(lcol), lrows: lrows, urows: urows}
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

// SymbolicSize is |s̃p(A^O)| for matrix pattern p under ordering o. It
// is how the harness scores the quality of an ordering on a matrix
// (Definition 4) without numeric work, reading p's rows through o
// instead of permuting p. A symmetric pattern under one permutation of
// rows and columns is counted through its elimination tree (etreeSize);
// anything else runs Symbolic's closure in counting form, keeping no L
// rows.
func SymbolicSize(p *sparse.Pattern, o sparse.Ordering) int {
	c := closures.Get().(*closure)
	defer closures.Put(c)
	c.colNew = resize(c.colNew, len(o.Col))
	for j, old := range o.Col {
		c.colNew[old] = j
	}
	if etreeCounts(p, o) {
		return c.etreeSize(p, o.Row, c.colNew)
	}
	return c.run(p, o.Row, c.colNew, false)
}

// etreeCounts reports whether SymbolicSize counts p under o through the
// elimination tree: p is symmetric and o permutes rows and columns
// alike, so the permuted pattern is symmetric too.
func etreeCounts(p *sparse.Pattern, o sparse.Ordering) bool {
	return slices.Equal(o.Row, o.Col) && p.Symmetric()
}

// etreeSize is SymbolicSize's count for a symmetric permuted pattern,
// whose s̃p is symmetric: U's row i is L's column i, so the size is
// n + 2·|L|. Row i of L is the set of vertices on the elimination-tree
// paths from row i's entries below the diagonal up to i (Liu 1990;
// Davis 2006, cs_ereach). The tree is grown row by row with path
// compression (cs_etree), and each entry's path is counted as soon as
// the entry has linked it to i, a mark per vertex keeping every vertex
// of the row counted once. That is O(|L| + nnz·α) with no row held.
func (c *closure) etreeSize(p *sparse.Pattern, rowOld, colNew []int) int {
	n := p.N()
	parent, ancestor := resize(c.parent, n), resize(c.ancestor, n)
	// mark[j] == i: j is counted in row i. The mark of a vertex j < i
	// was last set by a row in j..i-1 of this call, so a stale value
	// from an earlier call is never i.
	mark := resize(c.mark, n)
	lower := 0
	for i := 0; i < n; i++ {
		parent[i], ancestor[i], mark[i] = -1, -1, i
		for _, k := range p.Row(rowOld[i]) {
			k = colNew[k]
			if k >= i {
				continue
			}
			for r := k; r != -1 && r < i; {
				next := ancestor[r]
				ancestor[r] = i
				if next == -1 {
					parent[r] = i
				}
				r = next
			}
			for ; mark[k] != i; k = parent[k] {
				mark[k] = i
				lower++
			}
		}
	}
	c.parent, c.ancestor, c.mark = parent, ancestor, mark
	return n + 2*lower
}
