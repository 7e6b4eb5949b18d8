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
// value) as gathered from the terms, keyed by its unordered position
// (lo<<32 | hi; indices stay below 2³²), then — once regroup has matched
// it with its mirror — (key x, other index j, w_x[j]) of its cross, keyed
// by x's rank among the terms' keys.
type crossEntry struct {
	key  uint64
	i, j int
	v    float64
}

// regroup gathers the terms' entries into sc.cross as crosses, sorted by
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

// applySymmetric applies the crosses regroup left in sc.cross, one
// rank-2 sweep per key in ascending order. The factors stay mirrored
// whatever happens, an error included: every value written to L is
// written to U's mirror slot in the same statement.
func applySymmetric(f *lu.StaticFactors, sc *scratch, st *Stats) error {
	es := sc.cross
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi].i == es[lo].i {
			hi++
		}
		err := crossStatic(f, es[lo].i, es[lo:hi], sc, st)
		sc.clearCross()
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// clearCross zeroes what a cross sweep touched: a and b (kept in y and
// z) over their union support and the sub-cutoff positions, and the
// support flags.
func (sc *scratch) clearCross() {
	for _, j := range sc.ysupp {
		sc.y[j], sc.z[j] = 0, 0
		sc.inY[j] = false
	}
	for _, j := range sc.dirtyY {
		sc.y[j], sc.z[j] = 0, 0
	}
	sc.ysupp = sc.ysupp[:0]
	sc.dirtyY = sc.dirtyY[:0]
}

// crossStatic runs the symmetric rank-2 recurrence of the cross
// e_x·wᵀ + w·e_xᵀ over the frozen arrays of a mirrored StaticFactors.
// The two columns of Y live in y (a = e_x) and z (b = w), with one
// support list — ysupp, flagged in inY — for both. Before step x, a is
// still e_x, so p = (b_i, 0) and d' = d: the step only moves L(x, i) by
// b_i/d, propagates b down column i and takes b_i²/d off C's a·a
// entry. From x on, every step is two-sided (crossKernel). The
// out-of-structure check, the cutoff, the pivot check and the divisions
// are rank1Static's.
func crossStatic(f *lu.StaticFactors, x int, w []crossEntry, sc *scratch, st *Stats) error {
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
	// L(x, i) for the steps before x, from row x's cross view.
	xlo, xhi := f.LRowPtr[x], f.LRowPtr[x+1]
	xcols, xpos := f.LRowCols[xlo:xhi], f.LRowPos[xlo:xhi]
	cur := newCursor(xcols, len(w))

	c00, c01, c11 := 0.0, 1.0, 0.0 // C, symmetric
	for p := 0; p < len(sc.ysupp); p++ {
		i := sc.ysupp[p]
		ai, bi := a[i], b[i]
		if math.Abs(ai) <= PropagationCutoff && math.Abs(bi) <= PropagationCutoff {
			continue
		}
		st.StepsTouched++
		lo, hi := f.LColPtr[i], f.LColPtr[i+1]
		rows, lvals, uvals := f.LRowIdx[lo:hi], f.LVal[lo:hi], f.UVal[lo:hi]
		di := f.D[i]
		sc.newIdx = sc.newIdx[:0]
		if i < x {
			// b propagates with the old column; then L(x, i) moves.
			sc.sweepPropagate(rows, lvals, b, in, &sc.dirtyY, bi)
			sc.ysupp = mergeTail(sc.ysupp, p+1, sc.newIdx)
			v := bi / di
			if q, ok := cur.find(i); ok {
				k := xpos[q]
				f.LVal[k] += v
				f.UVal[k] = f.LVal[k]
			} else if math.Abs(v) <= DropTolerance {
				st.Dropped++
			} else {
				return fmt.Errorf("%w (L position %d,%d, value %g)", ErrOutOfPattern, x, i, v)
			}
			c00 -= bi * bi / di
			continue
		}
		pa, pb := c00*ai+c01*bi, c01*ai+c11*bi
		dip := di + (ai*pa + bi*pb)
		if math.Abs(dip) < lu.PivotTolerance {
			return &lu.SingularError{Pivot: i, Value: dip}
		}
		// outside counts the support positions beyond i that column i
		// does not hold, as in rank1Static.
		outside := len(sc.ysupp) - (p + 1) - sc.sweepCross(rows, lvals, uvals, a, b, in, di, pa, pb, dip, ai, bi)
		// Merge before any error exit, so clearCross reaches every flag.
		sc.ysupp = mergeTail(sc.ysupp, p+1, sc.newIdx)
		if outside != 0 || sc.rescan {
			if err := crossExtras(sc.ysupp[p+1:], rows, a, b, pa, pb, dip, st); err != nil {
				return err
			}
		}
		c00 -= pa * pa / dip
		c01 -= pa * pb / dip
		c11 -= pb * pb / dip
		f.D[i] = dip
	}
	return nil
}

// crossExtras is staticExtras for a cross: a support position beyond
// the step that column i does not hold would take the value
// (a_j·p_a + b_j·p_b) / d', which must be negligible.
func crossExtras(supp, structural []int, a, b []float64, pa, pb, dip float64, st *Stats) error {
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
		v := (a[j]*pa + b[j]*pb) / dip
		if math.Abs(v) <= DropTolerance {
			st.Dropped++
			continue
		}
		return fmt.Errorf("%w (position %d, value %g)", ErrOutOfPattern, j, v)
	}
	return nil
}
