package bennett

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/lu"
)

// The symmetric path (docs/ALGORITHMS.md, "Symmetric cross updates").
// When the factors are their own transpose (U = Lᵀ, lu's Mirrored) and
// ∆A is symmetric, A + ∆A = L·D·Lᵀ + Σ_x Y_x·C·Y_xᵀ with one cross
// Y_x = [e_x, w_x], C = [[0, 1], [1, 0]] per key x of the terms, and
// Bennett's rank-m recurrence applies each cross to L alone:
//
//	p = C·y_iᵀ,  d' = d + y_i·p,
//	L(j, i) ← (d·L(j, i) + Y_j·p) / d',  Y_j ← Y_j − y_i·L(j, i)  (old L),
//	C ← C − p·pᵀ / d',
//
// writing every new L value into U's mirror slot as well. One division
// per structural entry per cross, where the row and the column term of
// the rank-1 path divide twice each.

// crossEntry is one entry of ∆A on the symmetric path: (row, column,
// value) as collected from the terms, keyed by its unordered position
// (lo<<32 | hi; indices stay below 2³²), then — once regroup has matched
// it with its mirror — (key x, other index j, w_x[j]) of its cross, keyed
// by x's rank among the terms' keys.
type crossEntry struct {
	key  uint64
	i, j int
	v    float64
}

// regroup collects the terms' entries into sc.cross as crosses, sorted by
// key and then by the other index: each unordered pair {i, j} goes to the
// smaller of i and j that is a key, a diagonal entry goes in halved (the
// cross adds it twice). It reports false — ∆A is not bitwise symmetric,
// holds a position twice, or has a diagonal entry that does not halve
// exactly — and the rank-1 path applies the terms instead. It touches no
// dense scratch and, once the buffers have grown, allocates nothing.
func (sc *scratch) regroup(terms []Rank1Term) bool {
	es, keys := sc.pairs[:0], sc.keys[:0]
	add := func(i, j int, v float64) {
		lo, hi := min(i, j), max(i, j)
		es = append(es, crossEntry{uint64(lo)<<32 | uint64(hi), i, j, v})
	}
	for _, t := range terms {
		keys = append(keys, t.Key)
		for _, e := range t.W {
			if t.ByCol {
				add(e.Row, t.Key, e.Val)
			} else {
				add(t.Key, e.Row, e.Val)
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	sc.pairs, sc.keys = es, keys
	// The two entries of a pair sort next to each other, the pairs by
	// (lo, hi).
	slices.SortFunc(es, func(a, b crossEntry) int { return cmp.Compare(a.key, b.key) })
	count := slices.Grow(sc.count[:0], len(keys)+1)[:len(keys)+1]
	clear(count)
	sc.count = count
	out := 0
	for k := 0; k < len(es); {
		e := es[k]
		lo, hi, v := min(e.i, e.j), max(e.i, e.j), e.v
		if lo == hi {
			if v /= 2; v+v != e.v {
				return false
			}
			k++
		} else {
			if k+1 == len(es) || es[k+1].key != e.key || es[k+1].i == e.i || math.Float64bits(es[k+1].v) != math.Float64bits(v) {
				return false
			}
			k += 2
		}
		if k < len(es) && es[k].key == e.key {
			return false // the position again
		}
		// Every entry lies in a term keyed by its row or its column, so
		// when lo is not a key, hi is.
		x, other := lo, hi
		r, ok := slices.BinarySearch(keys, lo)
		if !ok {
			x, other = hi, lo
			r, _ = slices.BinarySearch(keys, hi)
		}
		es[out] = crossEntry{uint64(r), x, other, v}
		count[r+1]++
		out++
	}
	// A stable counting sort by cross. Within one, the pairs' (lo, hi)
	// order puts the others below x first (lo ascending), then x itself
	// and those above it (hi ascending): ascending throughout.
	for r := range keys {
		count[r+1] += count[r]
	}
	cross := slices.Grow(sc.cross[:0], out)[:out]
	for _, e := range es[:out] {
		cross[count[e.key]] = e
		count[e.key]++
	}
	sc.cross = cross
	return true
}

// crossColumns is what a cross sweep needs of a mirrored container
// beyond the recurrence itself: its pivots and the walk of one column
// of L — with U's mirror row written alongside — for each kind of step.
// The sweep (crossSweep) owns the math; crossStatic walks the frozen
// arrays and crossDynamic the linked lists. A walk admits every position
// it writes outside the support into sc.newIdx, and the sweep merges
// them into the support, error or not.
type crossColumns interface {
	pivots() []float64
	// begin readies the walks for the cross of key x with n entries.
	begin(x, n int)
	// oneSided runs step i < x: b propagates down column i through its
	// old values (b_j −= b_i·L(j, i)), then L(x, i) and U(i, x) move by
	// move.
	oneSided(i, x int, bi, move float64, sc *scratch, st *Stats) error
	// twoSided runs step i ≥ x: every structural L(j, i) and U(i, j)
	// becomes crossValue(di, L(j, i), a_j, b_j, pa, pb, dip), a and b
	// propagate through the non-zero old values, and tail — the
	// support beyond i — meets the column.
	twoSided(i int, tail []int, di, pa, pb, dip, ai, bi float64, sc *scratch, st *Stats) error
}

// crossC is the cross's 2×2 C, symmetric, starting at [[0, 1], [1, 0]],
// and the steps' arithmetic on it: the one math every container's sweep
// shares. It is passed and returned by value, so a sweep keeps it in
// registers.
type crossC struct{ c00, c01, c11 float64 }

// oneSided is a step before x, where a is still e_x: p = (b_i, 0) and
// d' = d. It takes b_i²/d off C's a·a entry and returns how far L(x, i)
// moves.
func (c crossC) oneSided(di, bi float64) (crossC, float64) {
	c.c00 -= bi * bi / di
	return c, bi / di
}

// pivot returns the two-sided step's p = C·y_iᵀ and d' = d + y_i·p.
func (c crossC) pivot(di, ai, bi float64) (pa, pb, dip float64) {
	pa, pb = c.c00*ai+c.c01*bi, c.c01*ai+c.c11*bi
	return pa, pb, di + (ai*pa + bi*pb)
}

// update returns C − p·pᵀ / d', after a two-sided step.
func (c crossC) update(pa, pb, dip float64) crossC {
	return crossC{c.c00 - pa*pa/dip, c.c01 - pa*pb/dip, c.c11 - pb*pb/dip}
}

// crossValue is a two-sided step's new factor value at row j,
// (d·v + Y_j·p) / d'. With v = 0 it is the value fill at j would take.
// The division stays a division (see rank1Static).
func crossValue(di, v, aj, bj, pa, pb, dip float64) float64 {
	return (di*v + (aj*pa + bj*pb)) / dip
}

// applySymmetric applies the crosses regroup left in sc.cross, one
// rank-2 sweep per key in ascending order. The factors stay mirrored
// whatever happens, an error included: every value a walk writes to L
// it writes to U's mirror in the same statement, and every position it
// splices into one list it splices into the other.
func applySymmetric(cols crossColumns, sc *scratch, st *Stats) error {
	es := sc.cross
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].i == es[lo].i {
			hi++
		}
		err := crossSweep(cols, es[lo].i, es[lo:hi], sc, st)
		sc.clearCross()
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// clearCross zeroes what a cross sweep touched: a and b (kept in y and
// z) over their union support, and the support flags.
func (sc *scratch) clearCross() {
	for _, j := range sc.ysupp {
		sc.y[j], sc.z[j] = 0, 0
		sc.inY[j] = false
	}
	sc.ysupp = sc.ysupp[:0]
}

// crossSweep runs the symmetric rank-2 recurrence of the cross
// e_x·wᵀ + w·e_xᵀ over a mirrored container. The two columns of Y live
// in y (a = e_x) and z (b = w), with one support list — ysupp, flagged
// in inY — for both. Before step x, a is still e_x, so the step only
// moves L(x, i) by b_i/d, propagates b down column i and takes b_i²/d
// off C's a·a entry. From x on, every step is two-sided. As on the
// rank-1 paths, a step is skipped only when a_i and b_i are both 0, and
// the pivot check is theirs.
func crossSweep(cols crossColumns, x int, w []crossEntry, sc *scratch, st *Stats) error {
	a, b, in := sc.y, sc.z, sc.inY
	push := func(j int) {
		in[j] = true
		sc.ysupp = append(sc.ysupp, j)
	}
	a[x] = 1
	for _, e := range w {
		if e.j > x && !in[x] {
			push(x)
		}
		b[e.j] = e.v
		push(e.j)
	}
	if !in[x] {
		push(x)
	}
	cols.begin(x, len(w))
	d := cols.pivots()

	c := crossC{0, 1, 0}
	for p := 0; p < len(sc.ysupp); p++ {
		i := sc.ysupp[p]
		ai, bi := a[i], b[i]
		if ai == 0 && bi == 0 {
			continue
		}
		st.StepsTouched++
		di := d[i]
		sc.newIdx = sc.newIdx[:0]
		var err error
		if i < x {
			var move float64
			c, move = c.oneSided(di, bi)
			err = cols.oneSided(i, x, bi, move, sc, st)
		} else {
			pa, pb, dip := c.pivot(di, ai, bi)
			if math.Abs(dip) < lu.PivotTolerance {
				return &lu.SingularError{Pivot: i, Value: dip}
			}
			if err = cols.twoSided(i, sc.ysupp[p+1:], di, pa, pb, dip, ai, bi, sc, st); err == nil {
				c = c.update(pa, pb, dip)
				d[i] = dip
			}
		}
		// Merge before any error exit, so clearCross reaches every flag.
		sc.ysupp = mergeTail(sc.ysupp, p+1, sc.newIdx)
		if err != nil {
			return err
		}
	}
	return nil
}

// crossStatic walks the frozen arrays of a mirrored StaticFactors: a
// column of L is a slice of LRowIdx, and U's mirror values sit at the
// same indices of UVal. The out-of-structure check, DropTolerance and
// ErrOutOfPattern are rank1Static's.
type crossStatic struct {
	f *lu.StaticFactors
	// Row x's cross view of L, looked up by the one-sided steps in
	// ascending order.
	xpos []int
	cur  cursor
}

func (c *crossStatic) pivots() []float64 { return c.f.D }

func (c *crossStatic) begin(x, n int) {
	f := c.f
	xlo, xhi := f.LRowPtr[x], f.LRowPtr[x+1]
	c.xpos = f.LRowPos[xlo:xhi]
	c.cur = newCursor(f.LRowCols[xlo:xhi], n)
}

func (c *crossStatic) oneSided(i, x int, bi, move float64, sc *scratch, st *Stats) error {
	f := c.f
	lo, hi := f.LColPtr[i], f.LColPtr[i+1]
	sc.sweepPropagate(f.LRowIdx[lo:hi], f.LVal[lo:hi], sc.z, sc.inY, bi)
	if q, ok := c.cur.find(i); ok {
		k := c.xpos[q]
		f.LVal[k] += move
		f.UVal[k] = f.LVal[k]
	} else if math.Abs(move) <= DropTolerance {
		st.Dropped++
	} else {
		return fmt.Errorf("%w (L position %d,%d, value %g)", ErrOutOfPattern, x, i, move)
	}
	return nil
}

// twoSided drives crossKernel down column i, admitting every position
// it stops at. The loop sits here rather than in a helper of its own:
// one call level less per step is measurable on the DBLP chains.
func (c *crossStatic) twoSided(i int, tail []int, di, pa, pb, dip, ai, bi float64, sc *scratch, st *Stats) error {
	f := c.f
	lo, hi := f.LColPtr[i], f.LColPtr[i+1]
	rows, lvals, uvals := f.LRowIdx[lo:hi], f.LVal[lo:hi], f.UVal[lo:hi]
	met := 0
	for p := 0; ; p++ {
		var m int
		p, m = crossKernel(rows, lvals, uvals, sc.y, sc.z, sc.inY, p, di, pa, pb, dip, ai, bi)
		met += m
		if p == len(rows) {
			break
		}
		sc.admit(rows[p], sc.inY)
	}
	// outside counts the support positions beyond i that column i does
	// not hold, as in rank1Static.
	if outside := len(tail) - met; outside != 0 || sc.rescan {
		// The promotions come from rows, so the unmerged tail holds every
		// position the structure lacks.
		return crossExtras(tail, rows, sc.y, sc.z, di, pa, pb, dip, st)
	}
	return nil
}

// crossExtras is staticExtras for a cross: a support position beyond
// the step that column i does not hold would take the fill value
// crossValue(d, 0, a_j, b_j, p_a, p_b, d'), which must be negligible.
func crossExtras(supp, structural []int, a, b []float64, di, pa, pb, dip float64, st *Stats) error {
	s := 0
	for _, j := range supp {
		if a[j] == 0 && b[j] == 0 {
			continue
		}
		for s < len(structural) && structural[s] < j {
			s++
		}
		if s < len(structural) && structural[s] == j {
			continue // covered by the structural pass
		}
		v := crossValue(di, 0, a[j], b[j], pa, pb, dip)
		if math.Abs(v) <= DropTolerance {
			st.Dropped++
			continue
		}
		return fmt.Errorf("%w (position %d, value %g)", ErrOutOfPattern, j, v)
	}
	return nil
}
