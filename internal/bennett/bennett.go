package bennett

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/lu"
	"repro/internal/sparse"
)

// DropTolerance is the magnitude below which an out-of-structure value
// produced by a static update is silently discarded (counted in
// Stats.Dropped). Values above it signal that the frozen structure does
// not cover the update and yield ErrOutOfPattern.
const DropTolerance = 1e-9

// ErrOutOfPattern reports that a static-structure update produced
// significant fill outside the frozen symbolic pattern. Under CLUDE
// this cannot happen for matrices within the USSP's cluster (Theorem
// 1); seeing it means the update was applied to a matrix outside the
// cluster.
var ErrOutOfPattern = errors.New("bennett: fill outside the static factor structure")

// Stats accumulates profiling information across updates.
type Stats struct {
	Rank1Updates int // rank-1 terms applied
	StepsTouched int // elimination steps visited
	Dropped      int // negligible values a container did not store (DropTolerance, fillCutoff)
}

// scratch holds the dense work vectors of the recurrence: the evolving
// y and z vectors, membership flags, and the sorted support index
// lists. One scratch serves a whole delta (it is reset between rank-1
// terms) so per-term allocation is O(support), not O(n).
type scratch struct {
	y, z     []float64
	inY, inZ []bool
	ysupp    []int
	zsupp    []int
	newIdx   []int
	// unit is the one-entry vector e_Key of the term being applied.
	unit [1]sparse.Entry
	// The symmetric path's regroup buffers (see regroup): ∆A's entries
	// paired up, its crosses, the terms' keys and a count per key.
	pairs, cross []crossEntry
	keys, count  []int
	// The symmetric path's column walks, one per container kind, kept
	// here so handing one to a sweep allocates nothing.
	static  crossStatic
	dynamic crossDynamic
	// discard counts an update whose caller passed no Stats.
	discard Stats
	// rescan makes rank1Static run staticExtras at every two-sided step
	// instead of only when its count says a support position lies
	// outside the structure. Tests set it (export_test.go) to hold the
	// counted path against the exhaustive one; production never does.
	rescan bool
}

func newScratch(n int) *scratch {
	return &scratch{
		y:   make([]float64, n),
		z:   make([]float64, n),
		inY: make([]bool, n),
		inZ: make([]bool, n),
	}
}

// load initializes the supports from sparse vectors (entries keyed by
// Row; values accumulate).
func (sc *scratch) load(ys, zs []sparse.Entry) {
	for _, e := range ys {
		sc.y[e.Row] += e.Val
		if !sc.inY[e.Row] {
			sc.inY[e.Row] = true
			sc.ysupp = append(sc.ysupp, e.Row)
		}
	}
	for _, e := range zs {
		sc.z[e.Row] += e.Val
		if !sc.inZ[e.Row] {
			sc.inZ[e.Row] = true
			sc.zsupp = append(sc.zsupp, e.Row)
		}
	}
	sort.Ints(sc.ysupp)
	sort.Ints(sc.zsupp)
}

// reset zeroes everything the last term touched.
func (sc *scratch) reset() {
	for _, j := range sc.ysupp {
		sc.y[j] = 0
		sc.inY[j] = false
	}
	for _, j := range sc.zsupp {
		sc.z[j] = 0
		sc.inZ[j] = false
	}
	sc.ysupp = sc.ysupp[:0]
	sc.zsupp = sc.zsupp[:0]
}

// mergeTail merges the sorted, disjoint list add into the sorted slice
// supp, where every element of add is greater than supp[from-1] (all
// insertions land in the tail). Returns the grown slice.
func mergeTail(supp []int, from int, add []int) []int {
	if len(add) == 0 {
		return supp
	}
	old := len(supp)
	supp = append(supp, add...)
	// Merge supp[from:old] and add from the back into supp[from:].
	i, j, w := old-1, len(add)-1, len(supp)-1
	for j >= 0 {
		if i >= from && supp[i] > add[j] {
			supp[w] = supp[i]
			i--
		} else {
			supp[w] = add[j]
			j--
		}
		w--
	}
	return supp
}

// Add accumulates the counters of o into st. Parallel callers keep one
// Stats per worker and merge them once the workers are done.
func (st *Stats) Add(o Stats) {
	st.Rank1Updates += o.Rank1Updates
	st.StepsTouched += o.StepsTouched
	st.Dropped += o.Dropped
}

// Workspace owns the dense recurrence scratch (the y/z work vectors and
// their support lists) so a caller applying many updates — the cluster
// chains of CLUDE/CINC, one Workspace per worker goroutine — reuses one
// allocation instead of paying O(n) per update. The zero value is ready
// to use; a Workspace must not be shared between concurrent updates.
type Workspace struct {
	sc *scratch
}

// grab returns clean scratch of dimension n, reallocating only when the
// dimension changes. Every update leaves each position it wrote in the
// support lists (even on error paths), so resetting on grab restores a
// fully zeroed workspace.
func (w *Workspace) grab(n int) *scratch {
	if w.sc == nil || len(w.sc.y) != n {
		w.sc = newScratch(n)
		return w.sc
	}
	w.sc.reset()
	return w.sc
}

// ApplyTerms applies pre-split rank-1 terms (SplitTerms) to f in place,
// in order: the package's one update entry point, behind both engines'
// factor chains (the streaming one hands the same terms to its history
// record) and history replay — which is what makes replayed factors
// bit-identical to live ones. f must be one of the two lu containers.
// On a warm workspace it allocates nothing.
//
// When f mirrors itself (lu's Mirrored on either container: U is Lᵀ
// bit for bit) and the terms reassemble a bitwise symmetric ∆A, the
// terms are regrouped into one cross per key and applied as symmetric
// rank-2 updates of L·D·Lᵀ (applySymmetric), which keep the factors
// mirrored; any other delta takes the rank-1 loop, after which the
// container's mirror bit is refreshed. The choice reads the data alone,
// so replay picks what the live update picked.
func (w *Workspace) ApplyTerms(f lu.Factors, terms []Rank1Term, st *Stats) error {
	sc := w.grab(f.Dim())
	if st == nil {
		// The walks take st through an interface, so a fresh Stats would
		// escape: count into the workspace's instead.
		sc.discard = Stats{}
		st = &sc.discard
	}
	if cols := sc.columnsOf(f); cols != nil && sc.regroup(terms) {
		st.Rank1Updates += len(terms)
		err := applySymmetric(cols, sc, st)
		sc.static.f, sc.dynamic.d = nil, nil
		return err
	}
	err := applyRank1(f, terms, sc, st)
	refreshMirror(f)
	return err
}

// columnsOf returns the column walks of f's container kind when f
// mirrors itself, and nil otherwise.
func (sc *scratch) columnsOf(f lu.Factors) crossColumns {
	switch c := f.(type) {
	case *lu.StaticFactors:
		if c.Mirrored() {
			sc.static.f = c
			return &sc.static
		}
	case *lu.DynamicFactors:
		if c.Mirrored() {
			sc.dynamic.d = c
			return &sc.dynamic
		}
	}
	return nil
}

// refreshMirror recomputes the container's cached mirror bit after a
// writer that does not keep it, the rank-1 loop.
func refreshMirror(f lu.Factors) {
	if m, ok := f.(interface{ RefreshMirror() }); ok {
		m.RefreshMirror()
	}
}

// applyRank1 applies the terms one rank-1 update at a time.
func applyRank1(f lu.Factors, terms []Rank1Term, sc *scratch, st *Stats) error {
	for _, t := range terms {
		sc.reset()
		sc.loadTerm(t)
		if err := rank1(f, 1, sc, st); err != nil {
			return err
		}
	}
	return nil
}

// rank1 applies the update loaded into sc to either container.
func rank1(f lu.Factors, sigma float64, sc *scratch, st *Stats) error {
	st.Rank1Updates++
	switch c := f.(type) {
	case *lu.StaticFactors:
		return rank1Static(c, sigma, sc, st)
	case *lu.DynamicFactors:
		return rank1Dynamic(c, sigma, sc, st)
	}
	return fmt.Errorf("bennett: cannot update container type %T", f)
}

// Rank1 applies the single update A ← A + σ·y·zᵀ (y, z given sparsely)
// to either container. Exposed for tests and benchmarks.
func Rank1(f lu.Factors, sigma float64, y, z []sparse.Entry, st *Stats) error {
	if st == nil {
		st = &Stats{}
	}
	sc := newScratch(f.Dim())
	sc.load(y, z)
	defer refreshMirror(f)
	return rank1(f, sigma, sc, st)
}

// Rank1Term is one pre-split rank-1 update of a delta sequence:
// A ← A + w·e_Keyᵀ when ByCol (W keyed by row), or A ← A + e_Key·wᵀ
// otherwise (W keyed by column; either way the varying index lives in
// the entries' Row field). SplitTerms produces them, ApplyTerms consumes
// them; a term's W slice is immutable once built so terms can be shared
// between the log and concurrent readers.
type Rank1Term struct {
	Key   int
	ByCol bool
	W     []sparse.Entry
}

// SplitTerms splits ∆A into the fewest rank-1 terms of the two shapes
// the recurrence applies: row terms e_r·wᵀ (ByCol false) and column
// terms w·e_cᵀ (ByCol true). Picture ∆A as a bipartite graph with one
// vertex per distinct row and column and one edge per entry: a set of
// terms can reassemble ∆A exactly when its keys cover every edge, so the
// fewest terms is the size of a maximum matching (König's theorem) — at
// most min(#rows, #cols), and often far below it. Evolving-graph
// matrices show both cases. An edge change in a directed walk matrix
// renormalizes one column, so a delta is a few columns over many rows
// and the column split is already minimum. A symmetric walk matrix
// changes as a cross — the rows and the columns of both endpoints —
// which one row and one column term per endpoint cover, instead of one
// term per neighbour.
//
// When a maximum matching saturates the smaller side, no cover beats
// that side and the split is one-sided, as it always was: every row
// (when there are no more rows than columns) or every column, keyed
// ascending. Otherwise it is the matching's König cover: row terms
// first, ascending by row, then column terms, ascending by column, and
// each entry goes to its row's term when that row is in the cover, else
// to its column's. Either way each W keeps delta order.
//
// Any split is safe inside a USSP: every intermediate matrix holds each
// position's old or new value, so its pattern lies within old ∪ new and
// hence within the cluster union (Theorem 1).
func SplitTerms(delta []sparse.Entry) []Rank1Term {
	if len(delta) == 0 {
		return nil
	}
	rows, cols := make([]int, len(delta)), make([]int, len(delta))
	for k, e := range delta {
		rows[k], cols[k] = e.Row, e.Col
	}
	slices.Sort(rows)
	slices.Sort(cols)
	rows, cols = slices.Compact(rows), slices.Compact(cols)
	// Entry k joins vertex ri[k] (its row) and vertex nr+ci[k] (its
	// column); ri is reused below for the entry's term.
	nr := len(rows)
	ri, ci := make([]int, len(delta)), make([]int, len(delta))
	for k, e := range delta {
		ri[k], ci[k] = sort.SearchInts(rows, e.Row), sort.SearchInts(cols, e.Col)
	}
	cover, size := minimumCover(ri, ci, nr, len(cols))

	// Number the cover's vertices in term order — rows, then columns, each
	// ascending — and send each entry to its term.
	termOf := make([]int, len(cover))
	terms := make([]Rank1Term, 0, size)
	for v, in := range cover {
		if !in {
			continue
		}
		termOf[v] = len(terms)
		if v < nr {
			terms = append(terms, Rank1Term{Key: rows[v]})
		} else {
			terms = append(terms, Rank1Term{Key: cols[v-nr], ByCol: true})
		}
	}
	for k := range delta {
		if cover[ri[k]] {
			ri[k] = termOf[ri[k]]
		} else {
			ri[k] = termOf[nr+ci[k]]
		}
	}

	// A counting sort by term keeps every term's entries in delta order,
	// and all W slices are carved from one array. pos[g] starts as term
	// g's first slot and, advanced once per entry placed, ends as its end.
	pos := make([]int, len(terms)+1)
	for _, g := range ri {
		pos[g+1]++
	}
	for g := range terms {
		pos[g+1] += pos[g]
	}
	w := make([]sparse.Entry, len(delta))
	for k, e := range delta {
		g := ri[k]
		if terms[g].ByCol {
			// z = e_c, y holds the column entries keyed by row.
			w[pos[g]] = sparse.Entry{Row: e.Row, Val: e.Val}
		} else {
			// y = e_r, z holds the row entries keyed by column.
			w[pos[g]] = sparse.Entry{Row: e.Col, Val: e.Val}
		}
		pos[g]++
	}
	lo := 0
	for g := range terms {
		terms[g].W = w[lo:pos[g]:pos[g]]
		lo = pos[g]
	}
	return terms
}

// minimumCover returns a minimum vertex cover of ∆A's bipartite graph:
// vertices 0..nr-1 are its distinct rows, nr..nr+nc-1 its distinct
// columns, and entry k joins ri[k] to nr+ci[k]. It matches from the
// smaller side (the rows on a tie): greedily first, with augmenting
// paths only for what the greedy pass left unmatched. A matching that
// saturates that side makes the side itself a minimum cover; otherwise
// the cover is König's: the smaller side's vertices that no alternating
// path from an unmatched one reaches, and the other side's vertices that
// one does. Either is a function of the graph alone, not of which
// maximum matching was found. It also returns the cover's size, the
// matching's.
func minimumCover(ri, ci []int, nr, nc int) ([]bool, int) {
	cover := make([]bool, nr+nc)
	small, large, left, right := cover[:nr], cover[nr:], ri, ci
	if nc < nr {
		small, large, left, right = large, small, ci, ri
	}
	g := newBipartite(left, right, len(small), len(large))
	size := g.maximumMatching()
	if size == len(small) {
		for u := range small {
			small[u] = true
		}
		return cover, size
	}
	g.konigCover(small, large)
	return cover, size
}

// bipartite is a matching in the bipartite graph with edges
// (left[k], right[k]), searched from the left.
type bipartite struct {
	ptr, adj       []int // left vertex u's neighbours: adj[ptr[u]:ptr[u+1]], in edge order
	matchL, matchR []int // each vertex's partner, or -1
	seen           []int // per right vertex, the last search (left vertex + 1) that visited it
}

func newBipartite(left, right []int, nLeft, nRight int) *bipartite {
	g := &bipartite{
		ptr:    make([]int, nLeft+1),
		adj:    make([]int, len(left)),
		matchL: make([]int, nLeft),
		matchR: make([]int, nRight),
		seen:   make([]int, nRight),
	}
	for _, u := range left {
		g.ptr[u+1]++
	}
	for u := range nLeft {
		g.ptr[u+1] += g.ptr[u]
	}
	// Fill by advancing each start to its end, then shift the ends back.
	for k, u := range left {
		g.adj[g.ptr[u]] = right[k]
		g.ptr[u]++
	}
	copy(g.ptr[1:], g.ptr[:nLeft])
	g.ptr[0] = 0
	for u := range g.matchL {
		g.matchL[u] = -1
	}
	for v := range g.matchR {
		g.matchR[v] = -1
	}
	return g
}

// maximumMatching matches greedily, then searches an augmenting path
// from each left vertex the greedy pass left unmatched (one search each
// suffices: a vertex with no augmenting path never gains one), and
// returns the matching's size.
func (g *bipartite) maximumMatching() int {
	size := 0
	for u := range g.matchL {
		for _, v := range g.adj[g.ptr[u]:g.ptr[u+1]] {
			if g.matchR[v] < 0 {
				g.matchL[u], g.matchR[v] = v, u
				size++
				break
			}
		}
	}
	if size == len(g.matchL) {
		return size
	}
	for u, v := range g.matchL {
		if v < 0 && g.augment(u, u+1) {
			size++
		}
	}
	return size
}

// augment looks for an alternating path from left vertex u to an
// unmatched right vertex, visiting each right vertex at most once per
// stamp, and flips the path into the matching if it finds one.
func (g *bipartite) augment(u, stamp int) bool {
	for _, v := range g.adj[g.ptr[u]:g.ptr[u+1]] {
		if g.seen[v] == stamp {
			continue
		}
		g.seen[v] = stamp
		if w := g.matchR[v]; w < 0 || g.augment(w, stamp) {
			g.matchL[u], g.matchR[v] = v, u
			return true
		}
	}
	return false
}

// konigCover marks the König cover of a maximum matching: it starts with
// every left vertex in and every right vertex out, then walks the
// alternating paths from the unmatched left vertices — any edge to the
// right, the matching edge back — taking each left vertex it reaches out
// and each right vertex it reaches in. (Every right vertex reached is
// matched, or the matching would not be maximum.)
func (g *bipartite) konigCover(leftIn, rightIn []bool) {
	stack := make([]int, 0, len(leftIn))
	for u, v := range g.matchL {
		leftIn[u] = v >= 0
		if v < 0 {
			stack = append(stack, u)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[g.ptr[u]:g.ptr[u+1]] {
			if rightIn[v] {
				continue
			}
			rightIn[v] = true
			if w := g.matchR[v]; leftIn[w] {
				leftIn[w] = false
				stack = append(stack, w)
			}
		}
	}
}

// loadTerm loads a pre-split term into the scratch.
func (sc *scratch) loadTerm(t Rank1Term) {
	sc.unit[0] = sparse.Entry{Row: t.Key, Val: 1}
	if t.ByCol {
		sc.load(t.W, sc.unit[:])
	} else {
		sc.load(sc.unit[:], t.W)
	}
}

// cursor looks positions up in one sorted structural index list, for
// queries that arrive in ascending order. When the queries are many
// relative to the list it walks (one merged pass over both), otherwise
// it binary-searches what is left of the list; either way it finds the
// same positions.
type cursor struct {
	idx  []int
	at   int
	walk bool
}

func newCursor(idx []int, queries int) cursor {
	return cursor{idx: idx, walk: len(idx) <= queries*bits.Len(uint(len(idx)))}
}

// find returns the position of j in the list and whether it is there.
func (c *cursor) find(j int) (int, bool) {
	if c.walk {
		for c.at < len(c.idx) && c.idx[c.at] < j {
			c.at++
		}
	} else {
		c.at += sort.SearchInts(c.idx[c.at:], j)
	}
	return c.at, c.at < len(c.idx) && c.idx[c.at] == j
}

// rank1Static runs the Bennett recurrence (see doc.go) against the
// frozen arrays of a StaticFactors. All passes are walks of sorted index
// slices; out-of-structure positions must carry negligible values or the
// update fails with ErrOutOfPattern. The divisions by d' are per entry
// on purpose: multiplying by a reciprocal would round differently, and
// the factors must stay bit-identical to history replay and to every
// earlier build.
func rank1Static(f *lu.StaticFactors, sigma float64, sc *scratch, st *Stats) error {
	n := f.Dim()
	py, pz := 0, 0
	for py < len(sc.ysupp) || pz < len(sc.zsupp) {
		i := n
		if py < len(sc.ysupp) {
			i = sc.ysupp[py]
		}
		if pz < len(sc.zsupp) && sc.zsupp[pz] < i {
			i = sc.zsupp[pz]
		}
		for py < len(sc.ysupp) && sc.ysupp[py] <= i {
			py++
		}
		for pz < len(sc.zsupp) && sc.zsupp[pz] <= i {
			pz++
		}
		yi, zi := sc.y[i], sc.z[i]
		if yi == 0 && zi == 0 {
			continue
		}
		st.StepsTouched++
		di := f.D[i]
		dip := di + sigma*yi*zi
		if math.Abs(dip) < lu.PivotTolerance {
			return &lu.SingularError{Pivot: i, Value: dip}
		}

		// ---- L column i and y propagation ----
		lo, hi := f.LColPtr[i], f.LColPtr[i+1]
		rows := f.LRowIdx[lo:hi]
		vals := f.LVal[lo:hi]
		sc.newIdx = sc.newIdx[:0]
		// outside counts the support positions beyond i that column i
		// does not hold: the support tail's length minus those met on
		// the structural walk (members before the step can promote). Zero
		// — the rule inside a USSP — means staticExtras has nothing to find.
		outside := 0
		switch {
		case zi != 0 && yi != 0:
			outside = len(sc.ysupp) - py - sc.sweepUpdate(rows, vals, sc.y, sc.inY, di, sigma*zi, dip, yi)
		case zi != 0: // yi == 0: dip == di; only positions with y_j != 0 move
			// No y propagation happens here, so instead of walking the
			// whole column we visit just the support — a direct indexed
			// access the frozen array structure affords (and the
			// linked-list container cannot; see paper §4 profiling).
			tail := sc.ysupp[py:]
			cur := newCursor(rows, len(tail))
			for _, j := range tail {
				if sc.y[j] == 0 {
					continue
				}
				if p, ok := cur.find(j); ok {
					vals[p] += sigma * zi * sc.y[j] / di
					continue
				}
				v := sigma * zi * sc.y[j] / di
				if math.Abs(v) <= DropTolerance {
					st.Dropped++
					continue
				}
				return fmt.Errorf("%w (L position %d,%d, value %g)", ErrOutOfPattern, j, i, v)
			}
		default: // yi != 0, zi == 0: L unchanged, only y propagates
			sc.sweepPropagate(rows, vals, sc.y, sc.inY, yi)
		}
		// Merge the promotions before any error exit below: positions
		// marked inY must be reachable from ysupp or reset() cannot
		// clear them and a reused scratch would be corrupted.
		sc.ysupp = mergeTail(sc.ysupp, py, sc.newIdx)
		if outside != 0 || (sc.rescan && zi != 0 && yi != 0) {
			// Out-of-structure positions: supp(y) ∩ (i, n) \ rows.
			// (The yi == 0 case checked them inline above. Freshly
			// promoted positions come from rows, so they are covered
			// by the structural pass and scanning them is harmless.)
			if err := staticExtras(sc.ysupp[py:], rows, sc.y, sigma*zi/dip, st); err != nil {
				return err
			}
		}

		// ---- U row i and z propagation ----
		ulo, uhi := f.URowPtr[i], f.URowPtr[i+1]
		cols := f.UColIdx[ulo:uhi]
		uvals := f.UVal[ulo:uhi]
		sc.newIdx = sc.newIdx[:0]
		outside = 0
		switch {
		case yi != 0 && zi != 0:
			outside = len(sc.zsupp) - pz - sc.sweepUpdate(cols, uvals, sc.z, sc.inZ, di, sigma*yi, dip, zi)
		case yi != 0: // zi == 0: only positions with z_j != 0 move
			tail := sc.zsupp[pz:]
			cur := newCursor(cols, len(tail))
			for _, j := range tail {
				if sc.z[j] == 0 {
					continue
				}
				if p, ok := cur.find(j); ok {
					uvals[p] += sigma * yi * sc.z[j] / di
					continue
				}
				v := sigma * yi * sc.z[j] / di
				if math.Abs(v) <= DropTolerance {
					st.Dropped++
					continue
				}
				return fmt.Errorf("%w (U position %d,%d, value %g)", ErrOutOfPattern, i, j, v)
			}
		default: // zi != 0, yi == 0: U unchanged, z propagates
			sc.sweepPropagate(cols, uvals, sc.z, sc.inZ, zi)
		}
		// Same ordering as the L phase: merge before the error exit.
		sc.zsupp = mergeTail(sc.zsupp, pz, sc.newIdx)
		if outside != 0 || (sc.rescan && yi != 0 && zi != 0) {
			if err := staticExtras(sc.zsupp[pz:], cols, sc.z, sigma*yi/dip, st); err != nil {
				return err
			}
		}

		sigma *= di / dip
		f.D[i] = dip
	}
	return nil
}

// staticExtras scans the sorted support tail against the sorted
// structural index list; any support position absent from the
// structure would need new fill, which a frozen container cannot hold.
func staticExtras(supp, structural []int, vec []float64, coef float64, st *Stats) error {
	s := 0
	for _, j := range supp {
		if vec[j] == 0 {
			continue
		}
		for s < len(structural) && structural[s] < j {
			s++
		}
		if s < len(structural) && structural[s] == j {
			continue // covered by the structural pass
		}
		v := coef * vec[j]
		if math.Abs(v) <= DropTolerance {
			st.Dropped++
			continue
		}
		return fmt.Errorf("%w (position %d, value %g)", ErrOutOfPattern, j, v)
	}
	return nil
}
