package bennett

// The first two leaf kernels below are rank1Static's inner loops. The
// L/y and U/z sides of a step are mirror images, so each kernel serves
// both: idx/vals are one structural column of L (or row of U), vec/in
// the y (or z) work vector and its support flags, xi the vector's own
// pivot entry. The third, crossKernel, is the symmetric path's.
//
// They are out of line on purpose. Inlined into rank1Static — a
// function large enough that the register allocator gives up on its
// loops — they inherit its spills: the counter and the vec/in slice
// headers live on the stack and every entry pays the reloads (2.9 ns per
// entry in the loops against 1.9–2.0 here; docs/PERFORMANCE.md, "The
// LUDEM run"). As call-free leaves over plain slices and scalars everything
// stays in registers, and the two-sided loop runs at the scalar
// divider's throughput.
//
// A kernel never grows a slice: at the first write to a position
// outside the support it stores the value and returns that position, so
// the rare promotion (scratch.admit, an append) happens in the caller —
// the sweep drivers at the bottom, and crossStatic.twoSided for
// crossKernel — which re-enters at p+1.

// updateKernel runs the two-sided step over idx[p:]: every structural
// value becomes (di·v + c·vec[j]) / dip — c is σ times the other
// vector's pivot entry, the product the recurrence has always formed
// first, and the division stays a division (see rank1Static) — and the
// step propagates vec[j] −= xi·v through the non-zero ones. It returns
// the position it stopped at — len(idx), or the first whose vec entry
// it wrote outside the support — and how many support members it met
// on the way, counted before the write so a promotion is not.
//
//go:noinline
func updateKernel(idx []int, vals, vec []float64, in []bool, p int, di, c, dip, xi float64) (stop, met int) {
	vals = vals[:len(idx)]
	for ; p < len(idx); p++ {
		j := idx[p]
		v, vj, member := vals[p], vec[j], in[j]
		met += b2i(member)
		vals[p] = (di*v + c*vj) / dip
		if v != 0 {
			vec[j] = vj - xi*v
			if !member {
				return p, met
			}
		}
	}
	return p, met
}

// propagateKernel runs the one-sided step over idx[p:]: the factor
// values stand, only vec[j] −= xi·v propagates through the non-zero
// ones. It returns the position it stopped at, as updateKernel does.
//
//go:noinline
func propagateKernel(idx []int, vals, vec []float64, in []bool, p int, xi float64) (stop int) {
	vals = vals[:len(idx)]
	for ; p < len(idx); p++ {
		if v := vals[p]; v != 0 {
			j := idx[p]
			vec[j] -= xi * v
			if !in[j] {
				return p
			}
		}
	}
	return p
}

// crossKernel is updateKernel for a symmetric cross (crossStatic):
// every structural value of L column i becomes crossValue, stored in L
// and in U's mirror slot, and both columns of Y propagate through the
// non-zero ones, a_j −= ai·v and b_j −= bi·v. in flags the union
// support of a and b.
// It returns where it stopped and the support members it met, as
// updateKernel does.
//
//go:noinline
func crossKernel(idx []int, lvals, uvals, a, b []float64, in []bool, p int, di, pa, pb, dip, ai, bi float64) (stop, met int) {
	lvals, uvals = lvals[:len(idx)], uvals[:len(idx)]
	for ; p < len(idx); p++ {
		j := idx[p]
		v, aj, bj, member := lvals[p], a[j], b[j], in[j]
		met += b2i(member)
		nv := crossValue(di, v, aj, bj, pa, pb, dip)
		lvals[p], uvals[p] = nv, nv
		if v != 0 {
			a[j], b[j] = aj-ai*v, bj-bi*v
			if !member {
				return p, met
			}
		}
	}
	return p, met
}

// sweepUpdate drives updateKernel down one structural column, admitting
// every out-of-support position the kernel stops at, and returns how
// many support members the column holds.
func (sc *scratch) sweepUpdate(idx []int, vals, vec []float64, in []bool, di, c, dip, xi float64) (met int) {
	for p := 0; ; p++ {
		var m int
		p, m = updateKernel(idx, vals, vec, in, p, di, c, dip, xi)
		met += m
		if p == len(idx) {
			return met
		}
		sc.admit(idx[p], in)
	}
}

// sweepPropagate is sweepUpdate for the one-sided step.
func (sc *scratch) sweepPropagate(idx []int, vals, vec []float64, in []bool, xi float64) {
	for p := 0; ; p++ {
		if p = propagateKernel(idx, vals, vec, in, p, xi); p == len(idx) {
			return
		}
		sc.admit(idx[p], in)
	}
}

// admit books a kernel's first write to position j outside the support:
// j is flagged in `in` and queued in newIdx for the merge into the
// support list, so it is propagated at its own step and reset zeroes it.
func (sc *scratch) admit(j int, in []bool) {
	in[j] = true
	sc.newIdx = append(sc.newIdx, j)
}

// b2i is 1 for true: the compiler turns it into the flag's byte, so
// counting support members costs no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
