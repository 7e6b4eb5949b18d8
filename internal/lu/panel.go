package lu

// This file is the supernodal panel layer over StaticFactors: a
// symbolic pass groups contiguous columns whose below-diagonal
// structure (and matching U row structure) is near-identical into
// panels, and a one-time packing step copies each panel's L/U entries
// into contiguous dense blocks. Substitution then processes a panel as
// a small dense triangular solve followed by a rank-panel update of the
// packed rows across all right-hand sides — tight loops over contiguous
// float64 slices instead of a pointer-chase through sparse storage.
//
// The contract is the same one every other solve path in this package
// carries: per right-hand side, the floating-point operations that
// touch each element happen in exactly the scalar SolveInPlace order,
// so panel answers are bit-identical to the scalar path and routing is
// purely an execution-schedule decision. Two things make that work:
//
//   - Packing only ever *adds* explicit zeros (relaxation fill and the
//     rectangular union of row patterns). An extra `x -= 0·v` leaves x
//     unchanged, so the per-element operation chain is preserved. (The
//     theoretical exception — an exactly-zero x whose sign bit flips,
//     or an Inf/NaN value — cannot arise from the finite factors and
//     right-hand sides this repository solves, and the property tests
//     compare bit-for-bit across every strategy to enforce it.)
//   - The kernels keep the scalar ordering: the forward rectangular
//     update is a sequence of per-column AXPYs (never a dot product,
//     which would reassociate), and the backward accumulator subtracts
//     within-panel columns then union columns, both ascending — the
//     global ascending-column order of the scalar row sweep.
//
// A PanelSet snapshots the factor *values* at build time, so it is only
// valid while the factors are not refilled or Bennett-updated;
// Solver.SolveRHS therefore builds panels lazily on solvers its caller
// declares frozen and never on a live source's hot factors.

import (
	"sort"
	"time"
)

// Panel construction defaults: DefaultPanelRelax is the number of
// structure mismatches tolerated between adjacent columns before a
// panel is cut (each mismatch packs one explicit zero per affected
// column), and DefaultPanelMaxWidth caps panel width so the dense
// triangular block stays cache-resident.
const (
	DefaultPanelRelax    = 2
	DefaultPanelMaxWidth = 32
)

// PartitionPanels partitions the columns 0..n-1 of f into contiguous
// panels and returns the boundaries: panel p spans columns
// [bounds[p], bounds[p+1]). Column c extends the panel of column c-1
// when the below-panel row pattern of L column c-1 (rows > c) differs
// from that of column c by at most relax entries, and symmetrically for
// the U row patterns (columns > c); wider mismatches cut the panel, as
// does maxWidth (<= 0 selects DefaultPanelMaxWidth). The partition is
// a pure performance decision — any partition yields bit-identical
// solves — so relax trades packed fill for panel width.
func PartitionPanels(f *StaticFactors, relax, maxWidth int) []int {
	if maxWidth <= 0 {
		maxWidth = DefaultPanelMaxWidth
	}
	if relax < 0 {
		relax = 0
	}
	n := f.n
	bounds := make([]int, 1, n/2+2)
	bounds[0] = 0
	w := 1
	for c := 1; c < n; c++ {
		if w < maxWidth && panelMergeable(f, c, relax) {
			w++
			continue
		}
		bounds = append(bounds, c)
		w = 1
	}
	if n > 0 {
		bounds = append(bounds, n)
	}
	return bounds
}

// panelMergeable reports whether column c may join the panel ending at
// column c-1: the L column patterns restricted to rows > c and the U
// row patterns restricted to columns > c each differ by at most relax
// entries.
func panelMergeable(f *StaticFactors, c, relax int) bool {
	a := trimBelow(f.LRowIdx[f.LColPtr[c-1]:f.LColPtr[c]], c)
	b := f.LRowIdx[f.LColPtr[c]:f.LColPtr[c+1]]
	budget := relax - symmDiff(a, b, relax)
	if budget < 0 {
		return false
	}
	au := trimBelow(f.UColIdx[f.URowPtr[c-1]:f.URowPtr[c]], c)
	bu := f.UColIdx[f.URowPtr[c]:f.URowPtr[c+1]]
	return symmDiff(au, bu, budget) <= budget
}

// trimBelow drops leading entries <= c from the sorted index slice s.
func trimBelow(s []int, c int) []int {
	for len(s) > 0 && s[0] <= c {
		s = s[1:]
	}
	return s
}

// symmDiff counts |a Δ b| for sorted index slices, giving up once the
// count exceeds budget (the caller only needs "within budget or not").
func symmDiff(a, b []int, budget int) int {
	d := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			a, b = a[1:], b[1:]
		case a[0] < b[0]:
			a = a[1:]
			d++
		default:
			b = b[1:]
			d++
		}
		if d > budget {
			return d
		}
	}
	return d + len(a) + len(b)
}

// panel is one packed column panel: columns [j0, j0+w). The diagonal
// blocks are dense w×w (L column-major with implicit unit diagonal,
// U row-major); the rectangular blocks cover the union of the panel
// columns' below-panel rows (lrows) and the union of the panel rows'
// beyond-panel columns (ucols), with explicit zeros where a column or
// row lacks a structural entry.
type panel struct {
	j0, w int

	lrows []int     // union of rows >= j0+w, sorted ascending
	ldiag []float64 // w×w, column jj at ldiag[jj*w : jj*w+w]
	lrect []float64 // len(lrows)×w, column jj at lrect[jj*m : jj*m+m]

	ucols []int     // union of cols >= j0+w, sorted ascending
	udiag []float64 // w×w, row ii at udiag[ii*w : ii*w+w]
	urect []float64 // w×len(ucols), row ii at urect[ii*mu : ii*mu+mu]
}

// PanelSet is the packed supernodal form of one StaticFactors value
// state. It is immutable after construction and safe for concurrent
// solves; it snapshots values, so refilling or updating the underlying
// factors invalidates it (build a new set).
type PanelSet struct {
	n      int
	panels []panel
	bounds []int
	d      []float64 // pivot snapshot (the diagonal sweep's operand)

	maxUnion int // max over panels of max(len(lrows), len(ucols))
	relax    int
	packTime time.Duration

	packedL, packedU int // packed slots (diag strict triangle + rect)
	nnzL, nnzU       int // structural entries those slots carry
	colsCovered      int // columns in panels of width >= 2
}

// NewPanelSet partitions and packs f (see PartitionPanels for relax and
// maxWidth). The returned set snapshots f's current values.
func NewPanelSet(f *StaticFactors, relax, maxWidth int) *PanelSet {
	start := time.Now()
	bounds := PartitionPanels(f, relax, maxWidth)
	ps := &PanelSet{n: f.n, bounds: bounds, relax: relax}
	ps.d = append([]float64(nil), f.D...)
	if f.n == 0 {
		ps.packTime = time.Since(start)
		return ps
	}
	ps.panels = make([]panel, len(bounds)-1)
	pos := make([]int, f.n)
	var union []int
	for pi := range ps.panels {
		pn := &ps.panels[pi]
		j0, j1 := bounds[pi], bounds[pi+1]
		w := j1 - j0
		pn.j0, pn.w = j0, w
		if w >= 2 {
			ps.colsCovered += w
		}

		// L: union of below-panel rows, then pack columns.
		union = union[:0]
		for j := j0; j < j1; j++ {
			for p := f.LColPtr[j]; p < f.LColPtr[j+1]; p++ {
				if r := f.LRowIdx[p]; r >= j1 {
					union = append(union, r)
				}
			}
		}
		pn.lrows = sortedDedup(union)
		m := len(pn.lrows)
		pn.ldiag = make([]float64, w*w)
		pn.lrect = make([]float64, m*w)
		for i, r := range pn.lrows {
			pos[r] = i
		}
		for j := j0; j < j1; j++ {
			jj := j - j0
			lo, hi := f.LColPtr[j], f.LColPtr[j+1]
			ps.nnzL += hi - lo
			for p := lo; p < hi; p++ {
				if r := f.LRowIdx[p]; r < j1 {
					pn.ldiag[jj*w+(r-j0)] = f.LVal[p]
				} else {
					pn.lrect[jj*m+pos[r]] = f.LVal[p]
				}
			}
		}
		ps.packedL += w*(w-1)/2 + m*w

		// U: union of beyond-panel columns, then pack rows.
		union = union[:0]
		for i := j0; i < j1; i++ {
			for p := f.URowPtr[i]; p < f.URowPtr[i+1]; p++ {
				if c := f.UColIdx[p]; c >= j1 {
					union = append(union, c)
				}
			}
		}
		pn.ucols = sortedDedup(union)
		mu := len(pn.ucols)
		pn.udiag = make([]float64, w*w)
		pn.urect = make([]float64, w*mu)
		for i, c := range pn.ucols {
			pos[c] = i
		}
		for i := j0; i < j1; i++ {
			ii := i - j0
			lo, hi := f.URowPtr[i], f.URowPtr[i+1]
			ps.nnzU += hi - lo
			for p := lo; p < hi; p++ {
				if c := f.UColIdx[p]; c < j1 {
					pn.udiag[ii*w+(c-j0)] = f.UVal[p]
				} else {
					pn.urect[ii*mu+pos[c]] = f.UVal[p]
				}
			}
		}
		ps.packedU += w*(w-1)/2 + w*mu

		if m > ps.maxUnion {
			ps.maxUnion = m
		}
		if mu > ps.maxUnion {
			ps.maxUnion = mu
		}
		// D is not packed: the diagonal sweep is already a dense
		// contiguous pass over f.D.
	}
	ps.packTime = time.Since(start)
	return ps
}

// sortedDedup sorts s, removes duplicates, and returns an owned copy.
func sortedDedup(s []int) []int {
	sort.Ints(s)
	out := make([]int, 0, len(s))
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// NumPanels returns the number of panels.
func (ps *PanelSet) NumPanels() int { return len(ps.panels) }

// Bounds returns the panel boundaries (see PartitionPanels). The slice
// aliases internal storage and must not be modified.
func (ps *PanelSet) Bounds() []int { return ps.bounds }

// ColsCovered returns the number of columns inside panels of width >= 2
// — the columns the packed path actually amortizes.
func (ps *PanelSet) ColsCovered() int { return ps.colsCovered }

// MeanWidth returns the mean panel width (1.0 when nothing merged;
// 0 for an empty factorization).
func (ps *PanelSet) MeanWidth() float64 {
	if len(ps.panels) == 0 {
		return 0
	}
	return float64(ps.n) / float64(len(ps.panels))
}

// MaxWidth returns the widest panel.
func (ps *PanelSet) MaxWidth() int {
	w := 0
	for i := range ps.panels {
		if ps.panels[i].w > w {
			w = ps.panels[i].w
		}
	}
	return w
}

// WidthHistogram returns counts[w] = number of panels of width w
// (counts[0] unused).
func (ps *PanelSet) WidthHistogram() []int {
	counts := make([]int, ps.MaxWidth()+1)
	for i := range ps.panels {
		counts[ps.panels[i].w]++
	}
	return counts
}

// FillFrac returns the fraction of packed slots holding explicit zeros
// introduced by relaxation and rectangular union — the memory price of
// panel width. 0 when nothing is packed.
func (ps *PanelSet) FillFrac() float64 {
	packed := ps.packedL + ps.packedU
	if packed == 0 {
		return 0
	}
	return float64(packed-ps.nnzL-ps.nnzU) / float64(packed)
}

// Relax returns the relaxation the set was built with.
func (ps *PanelSet) Relax() int { return ps.relax }

// PackTime returns the wall time of the symbolic pass plus packing.
func (ps *PanelSet) PackTime() time.Duration { return ps.packTime }

// SolveBlockInPlace runs the three substitution sweeps over k vectors
// through the packed panels. Per vector the floating-point operations
// on every element happen in the scalar SolveInPlace order (see the
// file comment), so each xs[r] ends up bit-identical to
// StaticFactors.SolveBlockInPlace on the factors the set was packed
// from. ws provides the interleave scratch (nil allocates a private
// one).
//
// Three mechanical transformations make the packed path fast, and all
// preserve every bit because none reorders operations within a lane:
//
//   - Lane interleaving. The block is transposed once into X, where
//     element i's k lanes sit contiguous at X[i*k : i*k+k], and
//     transposed back at the end. Every packed factor value is then
//     loaded exactly once and applied across all k right-hand sides
//     over contiguous lane bundles, where the vector-per-vector
//     scalar sweep reloads each entry k times and scatters the same
//     work across k distant vectors. The transposes are pure element
//     moves.
//
//   - Register chaining. The backward sweep subtracts up to eight
//     factor entries in one read-modify-write of the row bundle,
//     s - v0*c0 - v1*c1 - ... evaluated left to right: the same
//     subtractions in the same ascending-column order as the scalar
//     row sweep (float64 rounds after every operation either way),
//     with the running value held in a register instead of stored
//     and reloaded per entry. Panels make the operands contiguous:
//     all rows of a panel share one union column set.
//
//   - Early pivoting. The diagonal divide of a panel's elements runs
//     as soon as its forward rect update retires, while the bundle
//     is cache-hot: the forward sweep never reads or writes a
//     panel's elements again after its own rect update, so per
//     element the divide still lands after its last L update and
//     before its first U update — the scalar schedule.
func (ps *PanelSet) SolveBlockInPlace(xs [][]float64, ws *SolveWorkspace) {
	for _, x := range xs {
		if len(x) != ps.n {
			panic("lu: panel SolveBlockInPlace dimension mismatch")
		}
	}
	if ws == nil {
		ws = &SolveWorkspace{}
	}
	k := len(xs)
	n := ps.n
	X := ws.scratch(n * k)
	buf := ws.lanes(9 * k)
	ll, l0, l1, l2, l3 := buf[:k], buf[k:2*k], buf[2*k:3*k], buf[3*k:4*k], buf[4*k:5*k]
	l4, l5, l6, l7 := buf[5*k:6*k], buf[6*k:7*k], buf[7*k:8*k], buf[8*k:9*k]
	act := ws.list(k)
	// Interleave the lanes sorted by the position of each lane's first
	// nonzero entry. Serving right-hand sides are restart vectors, and
	// under a fill-reducing ordering restarts in the same community
	// sit near each other, so sorting clusters the lanes a community's
	// panels will activate into one contiguous index range — which
	// turns the kernels' active-lane sets into dense runs. Lanes never
	// read each other anywhere in the solve, so their order in the
	// bundle is free to choose: every bit of every lane is unchanged.
	lanes := ws.headers(k)
	copy(lanes, xs)
	keys := act[:k]
	for r, x := range lanes {
		keys[r] = firstNonzero(x)
	}
	for a := 1; a < k; a++ {
		x, fa := lanes[a], keys[a]
		b := a
		for ; b > 0 && keys[b-1] > fa; b-- {
			lanes[b], keys[b] = lanes[b-1], keys[b-1]
		}
		lanes[b], keys[b] = x, fa
	}
	for i := 0; i < n; i++ {
		base := i * k
		for r, x := range lanes {
			X[base+r] = x[i]
		}
	}

	// Forward: L y = b, then D z = y panel by panel. Per panel: the
	// dense unit-lower triangular solve on the w×w diagonal block
	// finalizes every panel multiplier column by column, then the
	// rank-w update applies the packed rect columns to the union rows —
	// per target element the updates arrive in ascending column order
	// with finalized multipliers, exactly the scalar schedule. The
	// scalar sweep's per-lane skip-on-zero is preserved throughout: a
	// lane with a zero multiplier gets no operation for that column.
	// Rect columns go four at a time when they activate exactly the
	// same lanes (activity only shifts at community boundaries, so runs
	// are long): one read-modify-write of the row bundle chains four
	// subtractions, just like the backward sweep.
	d := ps.d
	for pi := range ps.panels {
		pn := &ps.panels[pi]
		j0, w := pn.j0, pn.w
		m := len(pn.lrows)
		rows := pn.lrows
		if w > 1 {
			for jj := 0; jj < w; jj++ {
				bundle := X[(j0+jj)*k : (j0+jj)*k+k]
				act = act[:0]
				for r, xj := range bundle {
					if xj != 0 {
						ll[len(act)] = xj
						act = append(act, r)
					}
				}
				na := len(act)
				if na == 0 {
					continue
				}
				lo, hi := act[0], act[na-1]+1
				dcol := pn.ldiag[jj*w : jj*w+w]
				switch {
				case na == 1:
					ra := act[0]
					xj := ll[0]
					for ii := jj + 1; ii < w; ii++ {
						X[(j0+ii)*k+ra] -= dcol[ii] * xj
					}
				case hi-lo == na:
					// The sorted lanes make the active set a dense run.
					bb := bundle[lo:hi]
					for ii := jj + 1; ii < w; ii++ {
						v := dcol[ii]
						tb := (j0 + ii) * k
						la := X[tb+lo : tb+hi]
						_ = bb[len(la)-1]
						for r, xj := range bb {
							la[r] -= v * xj
						}
					}
				default:
					for ii := jj + 1; ii < w; ii++ {
						v := dcol[ii]
						tb := (j0 + ii) * k
						for t, r := range act {
							X[tb+r] -= v * ll[t]
						}
					}
				}
			}
		}
		if m > 0 {
			jj := 0
			for jj+3 < w {
				b0 := X[(j0+jj)*k : (j0+jj)*k+k]
				b1 := X[(j0+jj+1)*k : (j0+jj+1)*k+k]
				b2 := X[(j0+jj+2)*k : (j0+jj+2)*k+k]
				b3 := X[(j0+jj+3)*k : (j0+jj+3)*k+k]
				act = act[:0]
				for r, xj := range b0 {
					if xj != 0 {
						l0[len(act)] = xj
						act = append(act, r)
					}
				}
				if len(act) == 0 ||
					!compactMatch(b1, act, l1) ||
					!compactMatch(b2, act, l2) ||
					!compactMatch(b3, act, l3) {
					ps.forwardRect(X, pn, jj, k, ll, act)
					ps.forwardRect(X, pn, jj+1, k, ll, act)
					ps.forwardRect(X, pn, jj+2, k, ll, act)
					ps.forwardRect(X, pn, jj+3, k, ll, act)
					jj += 4
					continue
				}
				na := len(act)
				lo, hi := act[0], act[na-1]+1
				c0 := pn.lrect[jj*m : jj*m+m]
				c1 := pn.lrect[(jj+1)*m : (jj+1)*m+m]
				c2 := pn.lrect[(jj+2)*m : (jj+2)*m+m]
				c3 := pn.lrect[(jj+3)*m : (jj+3)*m+m]
				if jj+7 < w {
					b4 := X[(j0+jj+4)*k : (j0+jj+4)*k+k]
					b5 := X[(j0+jj+5)*k : (j0+jj+5)*k+k]
					b6 := X[(j0+jj+6)*k : (j0+jj+6)*k+k]
					b7 := X[(j0+jj+7)*k : (j0+jj+7)*k+k]
					if compactMatch(b4, act, l4) && compactMatch(b5, act, l5) &&
						compactMatch(b6, act, l6) && compactMatch(b7, act, l7) {
						c4 := pn.lrect[(jj+4)*m : (jj+4)*m+m]
						c5 := pn.lrect[(jj+5)*m : (jj+5)*m+m]
						c6 := pn.lrect[(jj+6)*m : (jj+6)*m+m]
						c7 := pn.lrect[(jj+7)*m : (jj+7)*m+m]
						if hi-lo == na {
							bb0, bb1, bb2, bb3 := b0[lo:hi], b1[lo:hi], b2[lo:hi], b3[lo:hi]
							bb4, bb5, bb6, bb7 := b4[lo:hi], b5[lo:hi], b6[lo:hi], b7[lo:hi]
							_ = c1[len(c0)-1]
							_ = c2[len(c0)-1]
							_ = c3[len(c0)-1]
							_ = c4[len(c0)-1]
							_ = c5[len(c0)-1]
							_ = c6[len(c0)-1]
							_ = c7[len(c0)-1]
							for i, v0 := range c0 {
								v1, v2, v3 := c1[i], c2[i], c3[i]
								v4, v5, v6, v7 := c4[i], c5[i], c6[i], c7[i]
								tb := rows[i] * k
								la := X[tb+lo : tb+hi]
								_ = bb0[len(la)-1]
								_ = bb1[len(la)-1]
								_ = bb2[len(la)-1]
								_ = bb3[len(la)-1]
								_ = bb4[len(la)-1]
								_ = bb5[len(la)-1]
								_ = bb6[len(la)-1]
								_ = bb7[len(la)-1]
								for r := range la {
									la[r] = la[r] - v0*bb0[r] - v1*bb1[r] - v2*bb2[r] - v3*bb3[r] -
										v4*bb4[r] - v5*bb5[r] - v6*bb6[r] - v7*bb7[r]
								}
							}
						} else if na <= 4 {
							_ = c1[len(c0)-1]
							_ = c2[len(c0)-1]
							_ = c3[len(c0)-1]
							_ = c4[len(c0)-1]
							_ = c5[len(c0)-1]
							_ = c6[len(c0)-1]
							_ = c7[len(c0)-1]
							for t, r := range act {
								x0, x1, x2, x3 := l0[t], l1[t], l2[t], l3[t]
								x4, x5, x6, x7 := l4[t], l5[t], l6[t], l7[t]
								for i, v0 := range c0 {
									tb := rows[i]*k + r
									X[tb] = X[tb] - v0*x0 - c1[i]*x1 - c2[i]*x2 - c3[i]*x3 -
										c4[i]*x4 - c5[i]*x5 - c6[i]*x6 - c7[i]*x7
								}
							}
						} else {
							_ = c1[len(c0)-1]
							_ = c2[len(c0)-1]
							_ = c3[len(c0)-1]
							_ = c4[len(c0)-1]
							_ = c5[len(c0)-1]
							_ = c6[len(c0)-1]
							_ = c7[len(c0)-1]
							_ = l0[len(act)-1]
							_ = l1[len(act)-1]
							_ = l2[len(act)-1]
							_ = l3[len(act)-1]
							_ = l4[len(act)-1]
							_ = l5[len(act)-1]
							_ = l6[len(act)-1]
							_ = l7[len(act)-1]
							for i, v0 := range c0 {
								v1, v2, v3 := c1[i], c2[i], c3[i]
								v4, v5, v6, v7 := c4[i], c5[i], c6[i], c7[i]
								tb := rows[i] * k
								for t, r := range act {
									X[tb+r] = X[tb+r] - v0*l0[t] - v1*l1[t] - v2*l2[t] - v3*l3[t] -
										v4*l4[t] - v5*l5[t] - v6*l6[t] - v7*l7[t]
								}
							}
						}
						jj += 8
						continue
					}
				}
				if hi-lo == na {
					bb0, bb1, bb2, bb3 := b0[lo:hi], b1[lo:hi], b2[lo:hi], b3[lo:hi]
					_ = c1[len(c0)-1]
					_ = c2[len(c0)-1]
					_ = c3[len(c0)-1]
					for i, v0 := range c0 {
						v1, v2, v3 := c1[i], c2[i], c3[i]
						tb := rows[i] * k
						la := X[tb+lo : tb+hi]
						_ = bb0[len(la)-1]
						_ = bb1[len(la)-1]
						_ = bb2[len(la)-1]
						_ = bb3[len(la)-1]
						for r := range la {
							la[r] = la[r] - v0*bb0[r] - v1*bb1[r] - v2*bb2[r] - v3*bb3[r]
						}
					}
				} else if na <= 4 {
					// Few live lanes: walk the four rect columns once per
					// lane with its multipliers in registers — cheaper than
					// per-row indirection through the active list. Each
					// element still sees its columns in ascending order.
					_ = c1[len(c0)-1]
					_ = c2[len(c0)-1]
					_ = c3[len(c0)-1]
					for t, r := range act {
						x0, x1, x2, x3 := l0[t], l1[t], l2[t], l3[t]
						for i, v0 := range c0 {
							tb := rows[i]*k + r
							X[tb] = X[tb] - v0*x0 - c1[i]*x1 - c2[i]*x2 - c3[i]*x3
						}
					}
				} else {
					_ = c1[len(c0)-1]
					_ = c2[len(c0)-1]
					_ = c3[len(c0)-1]
					_ = l0[len(act)-1]
					_ = l1[len(act)-1]
					_ = l2[len(act)-1]
					_ = l3[len(act)-1]
					for i, v0 := range c0 {
						v1, v2, v3 := c1[i], c2[i], c3[i]
						tb := rows[i] * k
						for t, r := range act {
							X[tb+r] = X[tb+r] - v0*l0[t] - v1*l1[t] - v2*l2[t] - v3*l3[t]
						}
					}
				}
				jj += 4
			}
			for ; jj < w; jj++ {
				ps.forwardRect(X, pn, jj, k, ll, act)
			}
		}
	}

	// Backward: U x = z, panels descending, rows descending within each
	// panel. The pivot divide z = y/d is fused into the row load — y is
	// never read between the forward sweep and here, and dividing
	// before the first subtraction is exactly the scalar order. Per row
	// and lane the accumulation subtracts within-panel columns then
	// union columns, both ascending — the scalar sweep's
	// global ascending-column order; the scalar sweep has no
	// skip-on-zero here, so the kernels apply unconditionally. Lanes go
	// in groups of eight held in scalar accumulators: the row bundle is
	// loaded once and stored once per group instead of being
	// read-modify-written per column, and a float64 store/load
	// round-trip preserves the value exactly, so each lane's
	// subtraction sequence — hence every bit — is unchanged. The
	// fixed-size array views keep the per-column loads bounds-check
	// free.
	for pi := len(ps.panels) - 1; pi >= 0; pi-- {
		pn := &ps.panels[pi]
		j0, w := pn.j0, pn.w
		mu := len(pn.ucols)
		// Union columns are shared by every row of the panel: scale
		// them into lane-bundle offsets once instead of per row.
		offs := ws.offsets(mu)
		for t, uc := range pn.ucols {
			offs[t] = uc * k
		}
		for ii := w - 1; ii >= 0; ii-- {
			sb := (j0 + ii) * k
			di := d[j0+ii]
			var drow []float64
			if w > 1 {
				drow = pn.udiag[ii*w : ii*w+w]
			}
			urow := pn.urect[ii*mu : ii*mu+mu]
			g := 0
			for ; g+7 < k; g += 8 {
				s := (*[8]float64)(X[sb+g:])
				s0, s1, s2, s3 := s[0]/di, s[1]/di, s[2]/di, s[3]/di
				s4, s5, s6, s7 := s[4]/di, s[5]/di, s[6]/di, s[7]/di
				for cc := ii + 1; cc < w; cc++ {
					v := drow[cc]
					c := (*[8]float64)(X[(j0+cc)*k+g:])
					s0 -= v * c[0]
					s1 -= v * c[1]
					s2 -= v * c[2]
					s3 -= v * c[3]
					s4 -= v * c[4]
					s5 -= v * c[5]
					s6 -= v * c[6]
					s7 -= v * c[7]
				}
				for t, v := range urow {
					c := (*[8]float64)(X[offs[t]+g:])
					s0 -= v * c[0]
					s1 -= v * c[1]
					s2 -= v * c[2]
					s3 -= v * c[3]
					s4 -= v * c[4]
					s5 -= v * c[5]
					s6 -= v * c[6]
					s7 -= v * c[7]
				}
				s[0], s[1], s[2], s[3] = s0, s1, s2, s3
				s[4], s[5], s[6], s[7] = s4, s5, s6, s7
			}
			if g+3 < k {
				s := (*[4]float64)(X[sb+g:])
				s0, s1, s2, s3 := s[0]/di, s[1]/di, s[2]/di, s[3]/di
				for cc := ii + 1; cc < w; cc++ {
					v := drow[cc]
					c := (*[4]float64)(X[(j0+cc)*k+g:])
					s0 -= v * c[0]
					s1 -= v * c[1]
					s2 -= v * c[2]
					s3 -= v * c[3]
				}
				for t, v := range urow {
					c := (*[4]float64)(X[offs[t]+g:])
					s0 -= v * c[0]
					s1 -= v * c[1]
					s2 -= v * c[2]
					s3 -= v * c[3]
				}
				s[0], s[1], s[2], s[3] = s0, s1, s2, s3
				g += 4
			}
			for ; g < k; g++ {
				sr := X[sb+g] / di
				for cc := ii + 1; cc < w; cc++ {
					sr -= drow[cc] * X[(j0+cc)*k+g]
				}
				for t, v := range urow {
					sr -= v * X[offs[t]+g]
				}
				X[sb+g] = sr
			}
		}
	}

	for i := 0; i < n; i++ {
		base := i * k
		for r, x := range lanes {
			x[i] = X[base+r]
		}
	}
}

// firstNonzero returns the index of x's first nonzero entry (len(x)
// when none) — the lane-ordering key of the panel interleave.
func firstNonzero(x []float64) int {
	for i, v := range x {
		if v != 0 {
			return i
		}
	}
	return len(x)
}

// compactMatch reports whether b's active lanes are exactly act (in
// order), filling lq with the active values when they are — the gate
// for the quad-column forward kernel, whose chained updates must give
// a skipped lane no operation for any of the four columns.
func compactMatch(b []float64, act []int, lq []float64) bool {
	t := 0
	for r, xj := range b {
		if xj != 0 {
			if t >= len(act) || act[t] != r {
				return false
			}
			lq[t] = xj
			t++
		}
	}
	return t == len(act)
}

// forwardRect applies one packed rect column to the union rows,
// honoring the per-lane skip-on-zero — the general single-column form
// the quad kernel falls back to when the four columns' activity
// differs.
func (ps *PanelSet) forwardRect(X []float64, pn *panel, jj, k int, ll []float64, act []int) {
	m := len(pn.lrows)
	bundle := X[(pn.j0+jj)*k : (pn.j0+jj)*k+k]
	act = act[:0]
	for r, xj := range bundle {
		if xj != 0 {
			ll[len(act)] = xj
			act = append(act, r)
		}
	}
	na := len(act)
	if na == 0 {
		return
	}
	rows := pn.lrows
	col := pn.lrect[jj*m : jj*m+m]
	lo, hi := act[0], act[na-1]+1
	switch {
	case na == 1:
		ra := act[0]
		xj := ll[0]
		for i, v := range col {
			X[rows[i]*k+ra] -= v * xj
		}
	case hi-lo == na:
		// The sorted lanes make the active set a dense run.
		bb := bundle[lo:hi]
		for i, v := range col {
			tb := rows[i] * k
			la := X[tb+lo : tb+hi]
			_ = bb[len(la)-1]
			for r, xj := range bb {
				la[r] -= v * xj
			}
		}
	case na <= 4:
		// Few live lanes: per-lane strided walks beat per-row
		// indirection through the active list.
		for t, r := range act {
			xj := ll[t]
			for i, v := range col {
				X[rows[i]*k+r] -= v * xj
			}
		}
	default:
		for i, v := range col {
			tb := rows[i] * k
			for t, r := range act {
				X[tb+r] -= v * ll[t]
			}
		}
	}
}

// panelsBuild returns the solver's packed panel set, building it with
// the default relaxation on first call; built reports whether *this*
// call did the build (so exactly one caller can account the packing
// cost). The set snapshots the factor values, so panelsBuild must only
// be used on solvers whose factors are frozen — pinned snapshots, not
// a live source's hot factors. Solvers over DynamicFactors have no
// panel form: the result is nil (with built true on the first call).
func (s *Solver) panelsBuild() (ps *PanelSet, built bool) {
	s.panelOnce.Do(func() {
		if f, ok := s.F.(*StaticFactors); ok {
			s.panels = NewPanelSet(f, DefaultPanelRelax, DefaultPanelMaxWidth)
		}
		built = true
	})
	return s.panels, built
}
