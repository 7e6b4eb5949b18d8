package bennett

import (
	"math"

	"repro/internal/lu"
)

// fillCutoff is the linked lists' one magnitude test: a fill value no
// larger than it is not spliced into the list (it counts in
// Stats.Dropped). Propagation stays exact; only the decision to grow a
// list reads it. Not storing fill v at L(j, i) moves the product L·D·U
// by v·d'ᵢ·U'(i, :) — by the mirror term for U(i, j) — which the later
// steps carry exactly, so each drop costs a backward error of v times a
// row of the factors. What it saves is list restructuring in CINC, the
// paper's baseline: on `cludebench -exp tblBennett -scale medium`
// (directed Wiki), splicing every non-zero fill value took 25 % more
// list inserts (1.05 M against 0.84 M) and 6.6 % more list scan steps
// (docs/PERFORMANCE.md, "Exact Bennett propagation"). CLUDE's static
// container splices nothing and has no such test.
const fillCutoff = 1e-10

// spliced reports whether a list keeps fill value v (fillCutoff). A
// non-zero v it does not keep counts as `cells` dropped values: one on
// the rank-1 path, two (L and U) on the cross path.
func spliced(v float64, cells int, st *Stats) bool {
	if math.Abs(v) > fillCutoff {
		return true
	}
	if v != 0 {
		st.Dropped += cells
	}
	return false
}

// rank1Dynamic runs the Bennett recurrence against a linked-list
// container. Each phase is a single merged walk of the (sorted) factor
// list and the (sorted) support tail; genuinely new fill positions are
// spliced into the list during the walk, which is exactly the
// restructuring cost the paper profiles for the traditional
// incremental algorithm.
func rank1Dynamic(d *lu.DynamicFactors, sigma float64, sc *scratch, st *Stats) error {
	n := d.Dim()
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
		di := d.D[i]
		dip := di + sigma*yi*zi
		if math.Abs(dip) < lu.PivotTolerance {
			return &lu.SingularError{Pivot: i, Value: dip}
		}

		// L column i: values, y propagation, fill splicing.
		sc.newIdx = sc.newIdx[:0]
		walkDynamic(d, true, i, sc.ysupp[py:], sc.y, sc.inY, sc, st, di, dip, sigma, yi, zi)
		sc.ysupp = mergeTail(sc.ysupp, py, sc.newIdx)

		// U row i: values, z propagation, fill splicing.
		sc.newIdx = sc.newIdx[:0]
		walkDynamic(d, false, i, sc.zsupp[pz:], sc.z, sc.inZ, sc, st, di, dip, sigma, zi, yi)
		sc.zsupp = mergeTail(sc.zsupp, pz, sc.newIdx)

		sigma *= di / dip
		d.D[i] = dip
	}
	return nil
}

// walkDynamic performs one factor phase at step i. For the L phase
// (isL true) vec is y, own = y_i, other = z_i: the value update is
// newL = (d·L + σ·z_i·y_j)/d' and propagation is y_j -= y_i·L(j,i).
// The U phase is the exact mirror (vec = z, own = z_i, other = y_i).
// supp must be sorted and contain only indices > i; it lists every
// position where vec may be non-zero beyond i. Every position written
// outside it is admitted into sc.newIdx.
func walkDynamic(d *lu.DynamicFactors, isL bool, i int, supp []int,
	vec []float64, inSupp []bool, sc *scratch, st *Stats,
	di, dip, sigma, own, other float64) {

	heads := d.UHead
	if isL {
		heads = d.LHead
	}
	prev := -1
	cur := heads[i]
	si := 0
	for cur != -1 || si < len(supp) {
		const maxInt = int(^uint(0) >> 1)
		jList, jSupp := maxInt, maxInt
		if cur != -1 {
			jList = d.Nodes[cur].Idx
		}
		if si < len(supp) {
			jSupp = supp[si]
		}
		if jList <= jSupp {
			// Structural position (possibly also in the support).
			d.ScanSteps++
			node := &d.Nodes[cur]
			v := node.Val
			if other != 0 {
				node.Val = (di*v + sigma*other*vec[jList]) / dip
			}
			if own != 0 && v != 0 {
				vec[jList] -= own * v
				if !inSupp[jList] {
					sc.admit(jList, inSupp)
				}
			}
			if jList == jSupp {
				si++
			}
			prev = cur
			cur = node.Next
			continue
		}
		// Support-only position: genuinely new fill when the update
		// term σ·other·vec[j]/d' is significant.
		if other != 0 && vec[jSupp] != 0 {
			v := sigma * other * vec[jSupp] / dip
			if !spliced(v, 1, st) {
				si++
				continue
			}
			if isL {
				prev = d.SpliceL(i, prev, cur, jSupp, v)
			} else {
				prev = d.SpliceU(i, prev, cur, jSupp, v)
			}
		}
		si++
	}
}

// crossDynamic walks the linked lists of a mirrored DynamicFactors for a
// cross sweep (crossSweep): L column i and U row i hold the same
// indices in the same order, so one merged walk moves a cursor down
// each in lock step, writes every new value into both nodes, and splices
// every fill position into both lists at the same place. Fill follows
// the rank-1 path's rule (spliced), a dropped value counting twice. Each
// list cell visited counts one ScanStep, so a structural position counts
// two.
type crossDynamic struct {
	d *lu.DynamicFactors
}

func (c *crossDynamic) pivots() []float64 { return c.d.D }

// splice puts fill value v at position j of L column i and of U row i,
// after the cells prevL and prevU and before nextL and nextU, and
// returns the two new cells.
func (c *crossDynamic) splice(i, j int, v float64, prevL, prevU, nextL, nextU int) (int, int) {
	return c.d.SpliceL(i, prevL, nextL, j, v), c.d.SpliceU(i, prevU, nextU, j, v)
}

func (c *crossDynamic) begin(x, n int) {}

func (c *crossDynamic) oneSided(i, x int, bi, move float64, sc *scratch, st *Stats) error {
	d := c.d
	b, in := sc.z, sc.inY
	prevL, prevU := -1, -1
	curL, curU := d.LHead[i], d.UHead[i]
	placed := false
	for curL != -1 {
		j := d.Nodes[curL].Idx
		if !placed && j >= x {
			placed = true
			if j > x && spliced(move, 2, st) {
				prevL, prevU = c.splice(i, x, move, prevL, prevU, curL, curU)
			}
		}
		d.ScanSteps += 2
		ln, un := &d.Nodes[curL], &d.Nodes[curU]
		v := ln.Val
		if v != 0 {
			b[j] -= bi * v
			if !in[j] {
				sc.admit(j, in)
			}
		}
		if j == x {
			nv := v + move
			ln.Val, un.Val = nv, nv
		}
		prevL, prevU = curL, curU
		curL, curU = ln.Next, un.Next
	}
	if !placed && spliced(move, 2, st) {
		c.splice(i, x, move, prevL, prevU, -1, -1)
	}
	return nil
}

func (c *crossDynamic) twoSided(i int, tail []int, di, pa, pb, dip, ai, bi float64, sc *scratch, st *Stats) error {
	d := c.d
	a, b, in := sc.y, sc.z, sc.inY
	prevL, prevU := -1, -1
	curL, curU := d.LHead[i], d.UHead[i]
	si := 0
	for curL != -1 || si < len(tail) {
		jList, jSupp := math.MaxInt, math.MaxInt
		if curL != -1 {
			jList = d.Nodes[curL].Idx
		}
		if si < len(tail) {
			jSupp = tail[si]
		}
		if jList <= jSupp {
			// Structural position (possibly also in the support).
			d.ScanSteps += 2
			ln, un := &d.Nodes[curL], &d.Nodes[curU]
			v, aj, bj := ln.Val, a[jList], b[jList]
			nv := crossValue(di, v, aj, bj, pa, pb, dip)
			ln.Val, un.Val = nv, nv
			if v != 0 {
				a[jList], b[jList] = aj-ai*v, bj-bi*v
				if !in[jList] {
					sc.admit(jList, in)
				}
			}
			if jList == jSupp {
				si++
			}
			prevL, prevU = curL, curU
			curL, curU = ln.Next, un.Next
			continue
		}
		// Support-only position: fill when its value is significant.
		if aj, bj := a[jSupp], b[jSupp]; aj != 0 || bj != 0 {
			if v := crossValue(di, 0, aj, bj, pa, pb, dip); spliced(v, 2, st) {
				prevL, prevU = c.splice(i, jSupp, v, prevL, prevU, curL, curU)
			}
		}
		si++
	}
	return nil
}
