package bennett

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// symmetricBound is how far, relative to the largest factor value, the
// symmetric path's factors may lie from the rank-1 path's on the same
// terms. Both run Bennett's recurrence exactly, so where every fill
// value is stored — always on CLUDE's static container — they agree to
// rounding (~1e-16 relative) on every input.
//
// The linked lists do not splice fill no larger than fillCutoff, and the
// two paths meet different fill: when a row and a column term fill one
// position with values that cancel in exact arithmetic, the rank-1 path
// splices the first and adds the second, where the cross forms the sum
// at once. Once either path has dropped a value, the two are held to the
// mathematics instead of to each other (dropBound).
const symmetricBound = 1e-12

// dropBound is how far one dropped fill value may move the product
// L·D·U, relative to max|A|. Dropping fill v at L(j, i) at step i of an
// update changes the product by exactly v·d'ᵢ·U'(i, :) — at U(i, j) by
// the mirror term, L'(:, i)·d'ᵢ·v — and the later steps update that
// perturbed product exactly. d'ᵢ·U'(i, :) is a row of the unit-free
// upper factor of the matrix the update has reached, whose every
// position holds its old or its new value; the walks and the fuzzer
// keep those matrices diagonally dominant, where elimination grows no
// entry beyond 2·max|A|. So each drop adds at most fillCutoff·2·max|A|
// to ‖L·D·U − A‖max. (A cross that drops fill drops it in L and in U and
// counts two.)
const dropBound = 2 * fillCutoff

// mirrorEntries sums entries per unordered position and returns each
// sum at both of its positions, so A(i, j) and A(j, i) hold the same bits
// whatever order the entries came in.
func mirrorEntries(es []sparse.Entry) []sparse.Entry {
	sum := map[[2]int]float64{}
	for _, e := range es {
		sum[[2]int{min(e.Row, e.Col), max(e.Row, e.Col)}] += e.Val
	}
	keys := make([][2]int, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	var out []sparse.Entry
	for _, k := range keys {
		out = append(out, sparse.Entry{Row: k[0], Col: k[1], Val: sum[k]})
		if k[0] != k[1] {
			out = append(out, sparse.Entry{Row: k[1], Col: k[0], Val: sum[k]})
		}
	}
	return out
}

// randomSymmetricDominant is randomDominant mirrored: A(i, j) and A(j, i)
// hold the same bits, and every row is strictly dominant.
func randomSymmetricDominant(rng *xrand.Rand, n, extra int) *sparse.CSR {
	var es []sparse.Entry
	rowAbs := make([]float64, n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.Float64()*2 - 1
		es = append(es, sparse.Entry{Row: i, Col: j, Val: v})
		rowAbs[i] += math.Abs(v)
		rowAbs[j] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: rowAbs[i] + 2 + rng.Float64()})
	}
	return applyEntries(sparse.NewCOO(n).ToCSR(), mirrorEntries(es))
}

// symmetricDelta is one step of a symmetric sequence, of one of four
// shapes: crosses (a few centres' rows and columns and diagonals, as a
// symmetric walk matrix changes), lone diagonal changes, one symmetric
// pair (a cover of both endpoints), or two crosses whose centres are
// joined (a pair with both endpoints in the cover).
func symmetricDelta(rng *xrand.Rand, n int) []sparse.Entry {
	var out []sparse.Entry
	small := func() float64 { return (rng.Float64() - 0.5) * 0.2 }
	pair := func(i, j int) { out = append(out, sparse.Entry{Row: i, Col: j, Val: small()}) }
	cross := func(c int) {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			if j := rng.Intn(n); j != c {
				pair(c, j)
			}
		}
		if rng.Intn(2) == 0 {
			out = append(out, sparse.Entry{Row: c, Col: c, Val: small()})
		}
	}
	switch rng.Intn(4) {
	case 0:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			cross(rng.Intn(n))
		}
	case 1:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			i := rng.Intn(n)
			out = append(out, sparse.Entry{Row: i, Col: i, Val: small()})
		}
	case 2:
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			pair(i, j)
		}
	default:
		c1, c2 := rng.Intn(n), rng.Intn(n)
		cross(c1)
		cross(c2)
		if c1 != c2 {
			pair(c1, c2)
		}
	}
	return mirrorEntries(out)
}

// symmetricWalk is a symmetric sequence of steps+1 matrices. Each delta
// is then taken as the difference of consecutive matrices, as the
// engines take it.
func symmetricWalk(rng *xrand.Rand, n, steps int) []*sparse.CSR {
	mats := []*sparse.CSR{randomSymmetricDominant(rng, n, 3*n)}
	for s := 0; s < steps; s++ {
		mats = append(mats, applyEntries(mats[s], symmetricDelta(rng, n)))
	}
	return mats
}

// unionFactors factorizes mats[0] into the static container of the
// walk's union pattern, in the identity ordering: CLUDE's container in
// miniature.
func unionFactors(t testing.TB, mats []*sparse.CSR) *lu.StaticFactors {
	t.Helper()
	union := mats[0].Pattern()
	for _, m := range mats[1:] {
		union = union.Union(m.Pattern())
	}
	f := lu.NewStaticFactors(lu.Symbolic(union))
	if err := f.Factorize(mats[0]); err != nil {
		t.Fatal(err)
	}
	return f
}

// mirrorer is either lu container: both cache Mirrored.
type mirrorer interface {
	lu.Factors
	Mirrored() bool
}

// mirrored is the predicate lu caches as Mirrored, computed from scratch
// on either container: U is Lᵀ, structure and value bits.
func mirrored(f lu.Factors) bool {
	switch c := f.(type) {
	case *lu.StaticFactors:
		return slices.Equal(c.LColPtr, c.URowPtr) && slices.Equal(c.LRowIdx, c.UColIdx) && bitsEqual(c.LVal, c.UVal)
	case *lu.DynamicFactors:
		for i := 0; i < c.Dim(); i++ {
			l, u := listNodes(c, c.LHead[i]), listNodes(c, c.UHead[i])
			if !slices.EqualFunc(l, u, func(a, b lu.ListNode) bool {
				return a.Idx == b.Idx && math.Float64bits(a.Val) == math.Float64bits(b.Val)
			}) {
				return false
			}
		}
		return true
	}
	panic("unknown container")
}

// listNodes is the list starting at head, in order.
func listNodes(d *lu.DynamicFactors, head int) []lu.ListNode {
	var out []lu.ListNode
	for cur := head; cur != -1; cur = d.Nodes[cur].Next {
		out = append(out, d.Nodes[cur])
	}
	return out
}

// denseFactors spells either container out as dense strict L, strict U
// and D.
func denseFactors(f lu.Factors) (l, u [][]float64, d []float64) {
	n := f.Dim()
	l, u = make([][]float64, n), make([][]float64, n)
	for i := range l {
		l[i], u[i] = make([]float64, n), make([]float64, n)
	}
	switch c := f.(type) {
	case *lu.StaticFactors:
		for j := 0; j < n; j++ {
			for p := c.LColPtr[j]; p < c.LColPtr[j+1]; p++ {
				l[c.LRowIdx[p]][j] = c.LVal[p]
			}
			for p := c.URowPtr[j]; p < c.URowPtr[j+1]; p++ {
				u[j][c.UColIdx[p]] = c.UVal[p]
			}
		}
		return l, u, c.D
	case *lu.DynamicFactors:
		for j := 0; j < n; j++ {
			for _, e := range listNodes(c, c.LHead[j]) {
				l[e.Idx][j] = e.Val
			}
			for _, e := range listNodes(c, c.UHead[j]) {
				u[j][e.Idx] = e.Val
			}
		}
		return l, u, c.D
	}
	panic("unknown container")
}

// factorGap is max |a − b| over every factor value, and the largest
// magnitude among b's. Positions one container holds and the other
// does not count as zeros.
func factorGap(a, b lu.Factors) (gap, scale float64) {
	la, ua, da := denseFactors(a)
	lb, ub, db := denseFactors(b)
	for i := range db {
		gap, scale = max(gap, math.Abs(da[i]-db[i])), max(scale, math.Abs(db[i]))
		for j := range db {
			gap = max(gap, math.Abs(la[i][j]-lb[i][j]), math.Abs(ua[i][j]-ub[i][j]))
			scale = max(scale, math.Abs(lb[i][j]), math.Abs(ub[i][j]))
		}
	}
	return gap, scale
}

// checkSymmetricStep applies the step from a to b, one step's terms, to
// sym by ApplyTerms and to ref by the rank-1 loop, counting into st and
// rt, which a caller walking a sequence keeps across its steps. It holds
// sym to the symmetric path's promises: it was taken, and the factors
// are still their own transpose bit for bit (and say so). On the dynamic
// container every splice went into both lists: the inserts and the
// scan steps the step added are even. Each path's product L·D·U moved
// by ∆A, up to rounding and dropBound per value it dropped in this step,
// and while neither path has dropped anything the two lie within
// symmetricBound of each other. It returns the paths' relative gap.
func checkSymmetricStep(t *testing.T, label string, sym, ref mirrorer, ws, wr *Workspace, a, b *sparse.CSR, st, rt *Stats) float64 {
	t.Helper()
	delta := sparse.Delta(a, b)
	terms := SplitTerms(delta)
	if !Regroups(terms) {
		t.Fatalf("%s: a symmetric delta was refused: %v", label, delta)
	}
	before := dynamicCounters(sym)
	symFrom, refFrom, symStats, refStats := product(sym), product(ref), *st, *rt
	if err := ws.ApplyTerms(sym, terms, st); err != nil {
		t.Fatalf("%s: symmetric path: %v", label, err)
	}
	if err := wr.ApplyRank1(ref, terms, rt); err != nil {
		t.Fatalf("%s: rank-1 path: %v", label, err)
	}
	if st.Rank1Updates-symStats.Rank1Updates != len(terms) || rt.Rank1Updates-refStats.Rank1Updates != len(terms) {
		t.Fatalf("%s: %d and %d updates counted for %d terms", label, st.Rank1Updates-symStats.Rank1Updates, rt.Rank1Updates-refStats.Rank1Updates, len(terms))
	}
	if !sym.Mirrored() || !mirrored(sym) {
		t.Fatalf("%s: factors no longer mirror themselves (cached %v)", label, sym.Mirrored())
	}
	if after := dynamicCounters(sym); (after[0]-before[0])%2 != 0 || (after[1]-before[1])%2 != 0 {
		t.Fatalf("%s: %d inserts and %d scan steps, not in pairs", label, after[0]-before[0], after[1]-before[1])
	}
	if ref.Mirrored() != mirrored(ref) {
		t.Fatalf("%s: the rank-1 path left Mirrored %v on factors whose mirror predicate is %v", label, ref.Mirrored(), mirrored(ref))
	}
	want, maxA := denseEntries(delta, a.N()), max(maxAbs(a), maxAbs(b))
	for _, p := range []struct {
		name    string
		f       lu.Factors
		from    [][]float64
		dropped int
	}{
		{"symmetric", sym, symFrom, st.Dropped - symStats.Dropped},
		{"rank-1", ref, refFrom, rt.Dropped - refStats.Dropped},
	} {
		moved := product(p.f)
		for i := range moved {
			for j := range moved[i] {
				moved[i][j] -= p.from[i][j]
			}
		}
		if r, bound := maxDiff(moved, want), (symmetricBound+float64(p.dropped)*dropBound)*maxA; r > bound {
			t.Fatalf("%s: the %s path moved L·D·U %g from ∆A with %d values dropped, bound %g", label, p.name, r, p.dropped, bound)
		}
	}
	gap, scale := factorGap(sym, ref)
	if st.Dropped == 0 && rt.Dropped == 0 && gap > symmetricBound*scale {
		t.Fatalf("%s: symmetric and rank-1 factors %g apart, bound %g", label, gap, symmetricBound*scale)
	}
	return gap / scale
}

// product is L·D·U of either container, dense.
func product(f lu.Factors) [][]float64 {
	l, u, d := denseFactors(f)
	n := len(d)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		l[i][i] = 1
	}
	for m := 0; m < n; m++ {
		u[m][m] = 1
		for i := 0; i < n; i++ {
			if c := l[i][m] * d[m]; c != 0 {
				for k := 0; k < n; k++ {
					p[i][k] += c * u[m][k]
				}
			}
		}
	}
	return p
}

// denseEntries spells the entries out as an n×n matrix, summing repeats.
func denseEntries(es []sparse.Entry, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, e := range es {
		m[e.Row][e.Col] += e.Val
	}
	return m
}

// maxDiff is max |a − b| over two dense matrices of one size.
func maxDiff(a, b [][]float64) float64 {
	var d float64
	for i := range a {
		for j := range a[i] {
			d = max(d, math.Abs(a[i][j]-b[i][j]))
		}
	}
	return d
}

// maxAbs is max |A|.
func maxAbs(a *sparse.CSR) float64 {
	var m float64
	for i := 0; i < a.N(); i++ {
		_, vals := a.Row(i)
		for _, v := range vals {
			m = max(m, math.Abs(v))
		}
	}
	return m
}

// dynamicCounters is a dynamic container's {Inserts, ScanSteps}, and
// zeros for a static one.
func dynamicCounters(f lu.Factors) [2]int {
	if d, ok := f.(*lu.DynamicFactors); ok {
		return [2]int{d.Inserts, d.ScanSteps}
	}
	return [2]int{}
}

// ownFactors factorizes a into the static container of its own pattern,
// in the identity ordering, and hands it over as linked lists: INC's
// container in miniature, which every change outside a's pattern makes
// splice.
func ownFactors(t testing.TB, a *sparse.CSR) *lu.DynamicFactors {
	t.Helper()
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	return lu.NewDynamicFactors(f)
}

// TestSymmetricPathMatchesRank1 walks random symmetric, diagonally
// dominant sequences under the identity ordering — crosses, lone
// diagonal changes, single pairs and joined crosses — through the
// symmetric path and, on a clone, through the rank-1 loop: at every step
// the symmetric factors stay bitwise mirrored and within the bound of the
// rank-1 ones, and solve the step's matrix as a fresh factorization does.
// Every fill position exists in the union's structure, so the gap stays
// at rounding level, far inside symmetricBound.
func TestSymmetricPathMatchesRank1(t *testing.T) {
	rng := xrand.New(4715)
	var worst float64
	for trial := 0; trial < 60; trial++ {
		mats := symmetricWalk(rng, 5+rng.Intn(30), 6)
		sym := unionFactors(t, mats)
		if !sym.Mirrored() || !mirrored(sym) {
			t.Fatalf("trial %d: a symmetric matrix under a symmetric ordering did not factorize mirrored", trial)
		}
		ref := sym.Clone().(*lu.StaticFactors)
		var ws, wr Workspace
		var st, rt Stats
		for s := 1; s < len(mats); s++ {
			worst = max(worst, checkSymmetricStep(t, "step", sym, ref, &ws, &wr, mats[s-1], mats[s], &st, &rt))
			x := make([]float64, mats[s].N())
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			b := mats[s].MulVec(x)
			sym.SolveInPlace(b)
			if d := sparse.NormInfDiff(b, x); d > 1e-10 {
				t.Fatalf("trial %d step %d: solve error %g", trial, s, d)
			}
		}
	}
	t.Logf("largest relative gap to the rank-1 path: %.3g", worst)
	if worst > symmetricBound {
		t.Errorf("relative gap %g to the rank-1 path, want ≤ %g", worst, symmetricBound)
	}
}

// TestSymmetricDynamicMatchesRank1 is TestSymmetricPathMatchesRank1 on
// INC's linked lists: each walk starts from the first matrix's own
// factors, so the crosses splice fill, and at every step the cross path
// must keep the lists bitwise mirrored — each splice landing in L and in
// U — lie within the bound of the dynamic rank-1 path on the same terms
// until either drops a fill value no larger than fillCutoff, move L·D·U
// by ∆A up to what the drops account for, and solve the step's matrix.
func TestSymmetricDynamicMatchesRank1(t *testing.T) {
	rng := xrand.New(4719)
	var worst float64
	inserts := 0
	for trial := 0; trial < 60; trial++ {
		mats := symmetricWalk(rng, 5+rng.Intn(30), 6)
		sym := ownFactors(t, mats[0])
		if !sym.Mirrored() || !mirrored(sym) {
			t.Fatalf("trial %d: the lists of mirrored static factors do not mirror each other", trial)
		}
		ref := sym.Clone().(*lu.DynamicFactors)
		var ws, wr Workspace
		var st, rt Stats
		for s := 1; s < len(mats); s++ {
			worst = max(worst, checkSymmetricStep(t, "step", sym, ref, &ws, &wr, mats[s-1], mats[s], &st, &rt))
			x := make([]float64, mats[s].N())
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			b := mats[s].MulVec(x)
			sym.SolveInPlace(b)
			if d := sparse.NormInfDiff(b, x); d > 1e-10 {
				t.Fatalf("trial %d step %d: solve error %g", trial, s, d)
			}
		}
		inserts += sym.Inserts
	}
	t.Logf("largest relative gap to the rank-1 path: %.3g; %d list inserts", worst, inserts)
	if inserts == 0 {
		t.Fatal("no cross spliced fill")
	}
}

// TestSymmetricPathFallsBackToRank1: a delta that is not bitwise
// symmetric — one entry of a pair, a pair whose halves differ in the
// last bit, a position given twice — takes the rank-1 loop, bit for bit,
// on either container, and the factors it leaves say they no longer
// mirror.
func TestSymmetricPathFallsBackToRank1(t *testing.T) {
	rng := xrand.New(4716)
	mats := symmetricWalk(rng, 12, 1)
	base := unionFactors(t, mats)
	v := 0.0625
	// An off-diagonal position of the matrix, so every case stays inside
	// the structure.
	i, j := 0, -1
	for ; j < 0; i++ {
		cols, _ := mats[0].Row(i)
		for _, c := range cols {
			if c > i {
				j = c
				break
			}
		}
	}
	i--
	for _, c := range []struct {
		name  string
		delta []sparse.Entry
	}{
		{"lone entry", []sparse.Entry{{Row: i, Col: j, Val: v}}},
		{"halves differ", []sparse.Entry{{Row: i, Col: j, Val: v}, {Row: j, Col: i, Val: math.Nextafter(v, 1)}}},
		{"position twice", []sparse.Entry{{Row: i, Col: j, Val: v}, {Row: i, Col: j, Val: v}, {Row: j, Col: i, Val: 2 * v}}},
		{"diagonal twice", []sparse.Entry{{Row: i, Col: i, Val: v}, {Row: i, Col: i, Val: v}}},
	} {
		terms := SplitTerms(c.delta)
		if Regroups(terms) {
			t.Fatalf("%s: accepted as symmetric", c.name)
		}
		for _, b := range []mirrorer{base, lu.NewDynamicFactors(base)} {
			got, want := b.Clone().(mirrorer), b.Clone().(mirrorer)
			var st, rt Stats
			if err := new(Workspace).ApplyTerms(got, terms, &st); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := new(Workspace).ApplyRank1(want, terms, &rt); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			same := false
			switch g := got.(type) {
			case *lu.StaticFactors:
				same = staticBitEqual(g, want.(*lu.StaticFactors))
			case *lu.DynamicFactors:
				same = dynamicBitEqual(g, want.(*lu.DynamicFactors))
			}
			if !same || st != rt {
				t.Fatalf("%s, %T: ApplyTerms did not take the rank-1 loop (%+v against %+v)", c.name, got, st, rt)
			}
			if got.Mirrored() != mirrored(got) {
				t.Fatalf("%s, %T: Mirrored %v, predicate %v", c.name, got, got.Mirrored(), mirrored(got))
			}
		}
	}
}

// TestSymmetricOutOfPattern: on a tridiagonal matrix, which fills
// nothing, a symmetric pair far off the band lies outside the frozen
// structure. Whichever branch meets it — the two-sided step at the
// cross's key, or a one-sided step before it — the update fails with
// ErrOutOfPattern, the factors still mirror themselves, and the
// workspace's next update is bit for bit a fresh workspace's.
func TestSymmetricOutOfPattern(t *testing.T) {
	const n = 8
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
			c.Add(i-1, i, -1)
		}
	}
	a := c.ToCSR()
	build := func() *lu.StaticFactors {
		f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		return f
	}
	pair := func(i, j int, v float64) []sparse.Entry {
		return []sparse.Entry{{Row: i, Col: j, Val: v}, {Row: j, Col: i, Val: v}}
	}
	// Key 0 owns {0, 6}: its two-sided step would write L(6, 0). A cross
	// at 6 reaching 0 and 1 is covered by 6 alone, so its one-sided step
	// at 0 would write L(6, 0) too.
	for _, c := range []struct {
		name, where string
		delta       []sparse.Entry
	}{
		{"two-sided", "(position 6,", pair(0, 6, 0.5)},
		{"one-sided", "(L position 6,0,", append(pair(0, 6, 0.5), pair(1, 6, 0.25)...)},
	} {
		name, terms := c.name, SplitTerms(c.delta)
		if !Regroups(terms) {
			t.Fatalf("%s: not regrouped", name)
		}
		var ws Workspace
		f := build()
		if err := ws.ApplyTerms(f, terms, nil); !errors.Is(err, ErrOutOfPattern) || !strings.Contains(err.Error(), c.where) {
			t.Fatalf("%s: got %v, want ErrOutOfPattern at %s", name, err, c.where)
		}
		if !f.Mirrored() || !mirrored(f) {
			t.Fatalf("%s: a failed update left the factors unmirrored", name)
		}
		inside := SplitTerms(pair(2, 3, 0.125))
		reused, fresh := build(), build()
		if err := ws.ApplyTerms(reused, inside, nil); err != nil {
			t.Fatal(err)
		}
		if err := new(Workspace).ApplyTerms(fresh, inside, nil); err != nil {
			t.Fatal(err)
		}
		if !staticBitEqual(reused, fresh) {
			t.Errorf("%s: workspace reused after ErrOutOfPattern diverged", name)
		}
	}
	// Below DropTolerance the same position is dropped and counted.
	var st Stats
	if err := new(Workspace).ApplyTerms(build(), SplitTerms(pair(0, 6, 1e-12)), &st); err != nil || st.Dropped == 0 {
		t.Fatalf("negligible fill: err %v, %d dropped", err, st.Dropped)
	}
}

// TestSymmetricSingularUpdate: a cross that makes an intermediate pivot
// vanish fails with SingularError on the symmetric path of either
// container, leaving the factors mirrored and the workspace clean.
func TestSymmetricSingularUpdate(t *testing.T) {
	// [[2,1],[1,2]] ⊕ 3·I. The cross at 0 adds 6 at (0,0) and 3 at (0,1)
	// and (1,0): [[8,4],[4,2]] is singular, which the sweep meets at
	// pivot 1 before the cross at 1 could add 6 at (1,1).
	const n = 4
	c := sparse.NewCOO(n)
	c.Add(0, 0, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 2)
	for i := 2; i < n; i++ {
		c.Add(i, i, 3)
	}
	a := c.ToCSR()
	f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	terms := SplitTerms([]sparse.Entry{{Row: 0, Col: 0, Val: 6}, {Row: 0, Col: 1, Val: 3}, {Row: 1, Col: 0, Val: 3}, {Row: 1, Col: 1, Val: 6}})
	for _, g := range []mirrorer{lu.NewDynamicFactors(f), f} {
		var ws Workspace
		var singular *lu.SingularError
		if err := ws.ApplyTerms(g, terms, nil); !errors.As(err, &singular) || singular.Pivot != 1 {
			t.Fatalf("%T: got %v, want a SingularError at pivot 1", g, err)
		}
		if !g.Mirrored() || !mirrored(g) {
			t.Fatalf("%T: a failed update left the factors unmirrored", g)
		}
		for j := range ws.sc.y {
			if ws.sc.y[j] != 0 || ws.sc.z[j] != 0 || ws.sc.inY[j] {
				t.Fatalf("%T: position %d of the workspace not cleared", g, j)
			}
		}
	}
}

// TestMirroredIsThePredicate: the cached bit equals the predicate it
// caches after each of its writers — construction, factorization, both
// update paths, Reset, Clone and AssembleStatic — on a symmetric and an
// unsymmetric structure; and the dynamic container's after
// NewDynamicFactors, the cross path, Clone, InsertL,
// InsertU, Rank1 and the rank-1 path.
func TestMirroredIsThePredicate(t *testing.T) {
	rng := xrand.New(4717)
	check := func(label string, f *lu.StaticFactors, want bool) {
		t.Helper()
		if f.Mirrored() != mirrored(f) || f.Mirrored() != want {
			t.Fatalf("%s: Mirrored %v, predicate %v, want %v", label, f.Mirrored(), mirrored(f), want)
		}
	}
	mats := symmetricWalk(rng, 20, 2)
	union := mats[0].Pattern().Union(mats[1].Pattern()).Union(mats[2].Pattern())
	f := lu.NewStaticFactors(lu.Symbolic(union))
	check("new", f, true)
	if err := f.Factorize(mats[0]); err != nil {
		t.Fatal(err)
	}
	check("factorized", f, true)
	if err := new(Workspace).ApplyTerms(f, SplitTerms(sparse.Delta(mats[0], mats[1])), nil); err != nil {
		t.Fatal(err)
	}
	check("symmetric update", f, true)
	assembled, err := lu.AssembleStatic(f.Dim(), f.LColPtr, f.LRowIdx, slices.Clone(f.LVal), f.URowPtr, f.UColIdx, slices.Clone(f.UVal), slices.Clone(f.D))
	if err != nil {
		t.Fatal(err)
	}
	check("assembled", assembled, true)
	k := f.LColPtr[1] - 1 // some L value of an early column
	for k >= 0 && f.LVal[k] == 0 {
		k--
	}
	if k < 0 {
		t.Fatal("no L value to break the mirror with")
	}
	assembled.LVal[k] = -assembled.LVal[k]
	assembled.RefreshMirror()
	check("refreshed", assembled, false)
	c := assembled.Clone().(*lu.StaticFactors)
	check("clone", c, false)
	c.Reset()
	check("reset", c, true)
	if err := new(Workspace).ApplyTerms(f, SplitTerms([]sparse.Entry{{Row: 3, Col: 3, Val: 0.5}, {Row: 3, Col: 4, Val: 0.25}}), nil); err != nil {
		t.Fatal(err)
	}
	check("rank-1 update", f, mirrored(f))
	if err := f.Factorize(mats[2]); err != nil {
		t.Fatal(err)
	}
	check("refactorized", f, true)

	directed := randomDominant(rng, 20, 80)
	g := lu.NewStaticFactors(lu.Symbolic(directed.Pattern()))
	if err := g.Factorize(directed); err != nil {
		t.Fatal(err)
	}
	check("unsymmetric structure", g, false)

	// The linked lists' bit, after each of its writers.
	checkD := func(label string, d *lu.DynamicFactors, want bool) {
		t.Helper()
		if d.Mirrored() != mirrored(d) || d.Mirrored() != want {
			t.Fatalf("dynamic %s: Mirrored %v, predicate %v, want %v", label, d.Mirrored(), mirrored(d), want)
		}
	}
	d := ownFactors(t, mats[0])
	checkD("new", d, true)
	// A symmetric pair outside the lists: the cross at its column splices
	// it.
	inL := func(x, col int) bool {
		for cur := d.LHead[col]; cur != -1; cur = d.Nodes[cur].Next {
			if d.Nodes[cur].Idx == x {
				return true
			}
		}
		return false
	}
	r, col := -1, 0
	for ; col < d.Dim() && r < 0; col++ {
		for x := col + 1; x < d.Dim(); x++ {
			if !inL(x, col) {
				r = x
				break
			}
		}
	}
	if r < 0 {
		t.Fatal("the factors are dense")
	}
	col--
	if err := new(Workspace).ApplyTerms(d, SplitTerms([]sparse.Entry{{Row: r, Col: col, Val: 0.25}, {Row: col, Col: r, Val: 0.25}}), nil); err != nil {
		t.Fatal(err)
	}
	checkD("cross update", d, true)
	if d.Inserts == 0 {
		t.Fatal("the cross update spliced nothing")
	}
	checkD("clone", d.Clone().(*lu.DynamicFactors), true)
	// A value at a position both lists hold: InsertL breaks the mirror,
	// InsertU with the same bits restores it; a new position likewise.
	i, j := -1, -1
	for c := 0; c < d.Dim() && i < 0; c++ {
		if h := d.LHead[c]; h != -1 {
			i, j = d.Nodes[h].Idx, c
		}
	}
	if i < 0 {
		t.Fatal("no L entry to overwrite")
	}
	d.InsertL(i, j, 0.125)
	checkD("InsertL overwrite", d, false)
	checkD("clone of unmirrored", d.Clone().(*lu.DynamicFactors), false)
	d.InsertU(j, i, 0.125)
	checkD("InsertU overwrite", d, true)
	fresh := -1
	for r := d.Dim() - 1; r > 0 && fresh < 0; r-- {
		if !inL(r, 0) {
			fresh = r
		}
	}
	if fresh < 0 {
		t.Fatal("column 0 is full")
	}
	d.InsertU(0, fresh, 0.25)
	checkD("InsertU splice", d, false)
	d.InsertL(fresh, 0, 0.25)
	checkD("InsertL splice", d, true)
	if err := Rank1(d, 1, []sparse.Entry{{Row: 3, Val: 1}}, []sparse.Entry{{Row: 4, Val: 0.5}}, nil); err != nil {
		t.Fatal(err)
	}
	checkD("Rank1", d, mirrored(d))
	if err := new(Workspace).ApplyTerms(d, SplitTerms([]sparse.Entry{{Row: 5, Col: 5, Val: 0.5}, {Row: 5, Col: 6, Val: 0.25}}), nil); err != nil {
		t.Fatal(err)
	}
	checkD("rank-1 update", d, mirrored(d))
	checkD("unsymmetric lists", lu.NewDynamicFactors(g), false)
}

// TestSymmetricApplyZeroAlloc: the symmetric path — regroup and sweeps —
// allocates nothing on a warm workspace.
func TestSymmetricApplyZeroAlloc(t *testing.T) {
	rng := xrand.New(4718)
	mats := symmetricWalk(rng, 60, 1)
	mats = append(mats, mats[0])
	f := unionFactors(t, mats)
	there, back := SplitTerms(sparse.Delta(mats[0], mats[1])), SplitTerms(sparse.Delta(mats[1], mats[0]))
	var ws Workspace
	var st Stats
	step := func() {
		if err := ws.ApplyTerms(f, there, &st); err != nil {
			t.Fatal(err)
		}
		if err := ws.ApplyTerms(f, back, &st); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if !f.Mirrored() {
		t.Fatal("the symmetric path did not run")
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per warm there-and-back symmetric update, want 0", allocs)
	}
}

// FuzzSymmetricUpdate decodes a symmetric, diagonally dominant matrix
// and a symmetric delta from the input — three bytes per pair (row,
// column, value) after a size byte — and holds the symmetric path to
// the rank-1 loop on both containers: CLUDE's, the union's static
// factors, and INC's, the first matrix's own factors as linked lists
// that the delta's fill is spliced into. No panic, mirrored factors, and
// checkSymmetricStep's bounds: symmetricBound between the paths while
// neither drops fill, and on either path L·D·U moved by ∆A up to
// rounding and dropBound per dropped value.
func FuzzSymmetricUpdate(f *testing.F) {
	f.Add([]byte{12, 0, 1, 9, 1, 2, 200, 0, 0, 50, 3, 4, 7, 0, 3, 90})
	f.Add([]byte{6, 0, 5, 100, 1, 5, 30, 5, 5, 20, 2, 3, 40, 2, 2, 9})
	f.Add([]byte{20, 3, 3, 1, 3, 7, 2, 7, 3, 3, 3, 11, 4, 11, 3, 5, 19, 0, 6})
	f.Add([]byte("7000000000b00CY0Cl0Y.\xf4!60Ab .100207A0!z0z70"))
	f.Add([]byte("9xz\x0exb0a,0aA00000001,00002c0800zg0100170\xdbA0bc09800"))
	f.Add([]byte("2a9\xf5$E\x11b\xce\xc7000\xf5Z\a29E000a1\xd818000000000001A79a01X8\b bZ7000b8\x0400021\xde000"))
	f.Add([]byte("9xz\x0exb0aA0000000000000000000*W\xa60000x0a-00000C0C000C0B002C\x10000b\xe8\xb9000XC\xafyc00002A 000x00,z\xc7X,Ab\xbea000y.A0xx000*y0000000zg0000000000bc00000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0]%30)
		half := 1 + (len(data)-1)/6 // pairs before the split are the matrix, after it the delta
		read := func(k int) (int, int, float64) {
			return int(data[k] % byte(n)), int(data[k+1] % byte(n)), float64(int8(data[k+2])) / 128
		}
		c := sparse.NewCOO(n)
		rowAbs := make([]float64, n)
		var delta []sparse.Entry
		for k, p := 1, 0; k+2 < len(data); k, p = k+3, p+1 {
			i, j, v := read(k)
			if p < half {
				if i != j {
					c.Add(i, j, v)
					c.Add(j, i, v)
					rowAbs[i] += math.Abs(v)
					rowAbs[j] += math.Abs(v)
				}
				continue
			}
			delta = append(delta, sparse.Entry{Row: i, Col: j, Val: v / 4})
			if i != j {
				delta = append(delta, sparse.Entry{Row: j, Col: i, Val: v / 4})
			}
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
		for i := 0; i < n; i++ {
			c.Add(i, i, rowAbs[i]+1)
		}
		a := c.ToCSR()
		b := applyEntries(a, delta)
		sym := unionFactors(t, []*sparse.CSR{a, b})
		checkSymmetricStep(t, "fuzz static", sym, sym.Clone().(mirrorer), new(Workspace), new(Workspace), a, b, new(Stats), new(Stats))
		dyn := ownFactors(t, a)
		checkSymmetricStep(t, "fuzz dynamic", dyn, dyn.Clone().(mirrorer), new(Workspace), new(Workspace), a, b, new(Stats), new(Stats))
	})
}
