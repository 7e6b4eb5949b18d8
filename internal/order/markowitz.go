package order

import (
	"repro/internal/lu"
	"repro/internal/sparse"
)

// Markowitz computes the Markowitz ordering O*(A) of a pattern with a
// structurally non-zero diagonal (the evolving-graph matrices always
// have one; it is force-added if missing). At each elimination step the
// strategy picks the diagonal pivot v minimizing the Markowitz cost
// (r(v)−1)·(c(v)−1), where r and c are the active row and column
// counts; ties break toward the smaller vertex index for determinism.
//
// The computation is a full symbolic elimination — "generally as
// expensive as doing a Gaussian Elimination" as the paper notes (§3) —
// so the result carries what that elimination produced: Symbolic is
// s̃p(A*) and SSPSize its size.
//
// On a structurally symmetric pattern (Pattern.Symmetric) the active
// row and column of every vertex stay equal, so r·c is d² and the
// elimination is MinDegree's: it runs on one shared list per vertex and
// returns the same ordering, size and structure as the two-list run.
func Markowitz(p *sparse.Pattern) Result {
	return eliminate(p, p.Symmetric())
}

// MinDegree computes a minimum-degree ordering of a structurally
// symmetric pattern (pattern asymmetries are symmetrized first, which
// matches the usual treatment). For symmetric matrices this coincides
// with the Markowitz strategy — cost (d−1)² is minimized exactly when
// degree d is — while doing half the bookkeeping; it is the "very
// efficient for symmetric matrices" route of paper §3 used by the
// LUDEM-QC algorithms.
func MinDegree(p *sparse.Pattern) Result {
	return eliminate(p, true)
}

// pivotCand is a heap candidate: vertex v proposed with cost c.
type pivotCand struct {
	cost int
	v    int
}

// Less orders candidates by (cost, v): a total order, so the heap's
// minimum is unique.
func (a pivotCand) Less(b pivotCand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.v < b.v
}

// elimGraph is the active submatrix of a symbolic elimination: per
// vertex, the unsorted off-diagonal columns of its row and rows of its
// column (one shared list per vertex in the symmetric case). The
// diagonal is implicit. Membership during fill is answered by a stamped
// mark array, so nothing is hashed.
type elimGraph struct {
	row, col [][]int
	mark     []int // mark[j] == stamp: j is in the row being filled
	stamp    int
}

// newElimGraph loads p (plus its transpose when symmetric) without
// duplicates. Each list is carved out of one backing array with its
// capacity capped at its length, so the first fill-in of a vertex moves
// that list alone.
func newElimGraph(p *sparse.Pattern, symmetric bool) *elimGraph {
	n := p.N()
	g := &elimGraph{mark: make([]int, n)}
	rowCnt, colCnt := make([]int, n), make([]int, n)
	if symmetric {
		colCnt = rowCnt
	}
	// First pass counts (over-counting duplicates of the symmetrized
	// pattern, which only leaves slack), second pass fills deduplicated.
	for i := 0; i < n; i++ {
		for _, j := range p.Row(i) {
			if j != i {
				rowCnt[i]++
				colCnt[j]++
			}
		}
	}
	carve := func(cnt []int) [][]int {
		total := 0
		for _, c := range cnt {
			total += c
		}
		back := make([]int, total)
		lists := make([][]int, n)
		at := 0
		for v, c := range cnt {
			lists[v] = back[at : at : at+c]
			at += c
		}
		return lists
	}
	g.row = carve(rowCnt)
	g.col = g.row
	if !symmetric {
		g.col = carve(colCnt)
	}
	for i := 0; i < n; i++ {
		if symmetric {
			// Entries (j, i) of earlier rows already put j into row i.
			g.stamp++
			for _, j := range g.row[i] {
				g.mark[j] = g.stamp
			}
			for _, j := range p.Row(i) {
				if j != i && g.mark[j] != g.stamp {
					g.mark[j] = g.stamp
					g.row[i] = append(g.row[i], j)
					g.row[j] = append(g.row[j], i)
				}
			}
			continue
		}
		for _, j := range p.Row(i) {
			if j != i {
				g.row[i] = append(g.row[i], j)
				g.col[j] = append(g.col[j], i)
			}
		}
	}
	return g
}

// drop removes v from the unsorted list by swapping the last element
// into its place.
func drop(list []int, v int) []int {
	for k, x := range list {
		if x == v {
			last := len(list) - 1
			list[k] = list[last]
			return list[:last]
		}
	}
	return list
}

// The dense-phase policy. Late in an elimination the live submatrix is
// small and mostly fill, and the lists pay |row i| + |r| marks, walks and
// appends per neighbour i for what is an OR of a few machine words. Both
// constants keep the value their sweep justified (docs/PERFORMANCE.md,
// "What a batch's apply is made of"):
const (
	// denseMaxBytes bounds the bitsets of one call: the phase starts only
	// once both sets (rows and columns, 2·m²/8 bytes over m live
	// vertices) fit in it, which is m ≤ 4096. They are per call and
	// garbage by return, like the lists.
	denseMaxBytes = 4 << 20
	// denseMinFill is the density at which the switch pays: a mean active
	// row of at least m/denseMinFill entries.
	denseMinFill = 16
)

// denseBytes is what the dense phase allocates for m live vertices.
func denseBytes(m int) int { return 2 * m * ((m + 63) / 64) * 8 }

// denseReady reports whether a live submatrix of m vertices holding
// entries off-diagonal positions should move to bitsets.
func denseReady(m, entries int) bool {
	return denseBytes(m) <= denseMaxBytes && entries*denseMinFill >= m*m
}

// phases says where an elimination changed representation: denseAt is
// the live-vertex count at the switch (-1: never) and densePivots how
// many pivots the dense phase went on to eliminate.
type phases struct {
	denseAt, densePivots int
}

func eliminate(p *sparse.Pattern, symmetric bool) Result {
	res, _ := eliminateWith(p, symmetric, denseReady)
	return res
}

// eliminateWith runs the greedy symbolic elimination shared by Markowitz
// and MinDegree. The pivot at every step is the live vertex with the
// smallest (cost, index) — a total order — so the sequence does not
// depend on how the graph or the candidates are stored, and the
// elimination is free to hold the active submatrix in two ways: as
// adjacency lists with a lazy-deletion heap (stale entries are skipped
// on pop; every live vertex always has an entry carrying its current
// cost), and, from the first step at which ready says so, as bitsets
// (eliminateDense). ready is asked before every pivot with the live
// vertex count and the live off-diagonal entry count.
//
// A pivot's active row and column are row k of U and column k of L, so
// they are kept as the structure instead of dropped; the lists are
// mapped to pivot positions at the end and handed to
// lu.SymbolicFromElimination, which sorts them.
func eliminateWith(p *sparse.Pattern, symmetric bool, ready func(m, entries int) bool) (Result, phases) {
	n := p.N()
	g := newElimGraph(p, symmetric)
	cost := func(v int) int {
		if symmetric {
			d := len(g.row[v])
			return d * d
		}
		return len(g.row[v]) * len(g.col[v])
	}

	curCost := make([]int, n)
	eliminated := make([]bool, n)
	h := make(sparse.MinHeap[pivotCand], n, 2*n)
	entries := 0 // live off-diagonal positions, kept as the lists change
	for v := 0; v < n; v++ {
		curCost[v] = cost(v)
		h[v] = pivotCand{curCost[v], v}
		entries += len(g.row[v])
	}
	h.Init()

	recost := func(touched []int) {
		for _, u := range touched {
			if nc := cost(u); nc != curCost[u] {
				curCost[u] = nc
				h.Push(pivotCand{nc, u})
			}
		}
	}

	pivots := make([]int, 0, n)
	// urow[k], lcol[k]: pivot k's active row and column, as vertices
	// until the pivot positions are known.
	urow := make([][]int, n)
	lcol := urow
	if !symmetric {
		lcol = make([][]int, n)
	}
	sspSize := 0
	ph := phases{denseAt: -1}
	for len(pivots) < n {
		if m := n - len(pivots); ready(m, entries) {
			before := len(pivots)
			var size int
			pivots, size = eliminateDense(g, symmetric, eliminated, pivots, urow, lcol)
			ph = phases{denseAt: m, densePivots: len(pivots) - before}
			sspSize += size
			break
		}
		cand := h.Pop()
		v := cand.v
		if eliminated[v] || cand.cost != curCost[v] {
			continue // stale heap entry (lazy deletion)
		}
		if m := n - len(pivots); cand.cost == (m-1)*(m-1) {
			// The cheapest of m live vertices reaches all m-1 others, so
			// every one does: the active submatrix is full. From here each
			// elimination lowers every cost alike and creates no fill, so
			// (cost, index) order is index order.
			break
		}
		eliminated[v] = true
		k := len(pivots)
		pivots = append(pivots, v)
		r, c := g.row[v], g.col[v]
		urow[k], lcol[k] = r, c
		sspSize += len(r) + len(c) + 1

		// Fill: every active (i, v) × (v, j) pair creates (i, j). Marking
		// row i once answers all of its membership tests; v leaves the
		// row in the same pass.
		fill := 0
		for _, i := range c {
			g.stamp++
			g.mark[i] = g.stamp // the diagonal (i, i) is always present
			ri := g.row[i]
			for x := 0; x < len(ri); {
				if ri[x] == v {
					ri[x] = ri[len(ri)-1]
					ri = ri[:len(ri)-1]
					continue
				}
				g.mark[ri[x]] = g.stamp
				x++
			}
			for _, j := range r {
				if g.mark[j] != g.stamp {
					ri = append(ri, j)
					g.col[j] = append(g.col[j], i) // j != i: i is marked
					fill++
				}
			}
			g.row[i] = ri
		}
		if symmetric {
			fill *= 2 // the shared lists took (i, j) and (j, i)
		}
		entries += fill - len(r) - len(c) // v's row, and v out of c's rows
		if !symmetric {
			for _, j := range r {
				g.col[j] = drop(g.col[j], v)
			}
		}
		g.row[v], g.col[v] = nil, nil

		// Only the neighbours' degrees changed. A vertex in both r and c
		// is re-costed twice; the second time finds nothing new.
		recost(r)
		if !symmetric {
			recost(c)
		}
	}

	// The lists kept so far name vertices; the dense tail's are written
	// as positions straight away: pivot k of the tail reaches exactly
	// the positions after it, a suffix of one shared run.
	sparsePivots := len(pivots)
	for v := 0; v < n; v++ {
		if !eliminated[v] {
			pivots = append(pivots, v)
		}
	}
	pos := sparse.Perm(pivots).Inverse()
	for k := 0; k < sparsePivots; k++ {
		for x, v := range urow[k] {
			urow[k][x] = pos[v]
		}
		if !symmetric {
			for x, v := range lcol[k] {
				lcol[k][x] = pos[v]
			}
		}
	}
	if m := n - sparsePivots; m > 0 {
		after := make([]int, m-1)
		for x := range after {
			after[x] = sparsePivots + 1 + x
		}
		for k := sparsePivots; k < n; k++ {
			urow[k], lcol[k] = after[k-sparsePivots:], after[k-sparsePivots:]
		}
		sspSize += m * m
	}
	if symmetric {
		urow = nil // the same lists as lcol: see lu.SymbolicFromElimination
	}
	return Result{
		Ordering: sparse.SymmetricOrdering(pivots),
		SSPSize:  sspSize,
		Symbolic: lu.SymbolicFromElimination(lcol, urow),
	}, ph
}
