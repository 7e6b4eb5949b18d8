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
// terms when the propagation cutoff does not bite; with the cutoff off
// the two agree to rounding (~1e-16 relative) on every input.
//
// Where it bites, each path drops vector entries of at most
// PropagationCutoff, at different steps — a rank-1 term can keep a step
// alive through its unit vector where the cross's two vectors have both
// fallen below the cutoff — and a dropped entry moves a factor value by
// at most the cutoff times an entry of order one (an L value, a C entry,
// a unit vector's 1). So FuzzSymmetricUpdate, whose quantized values
// make fill that cancels down to the cutoff's scale, allows the paths
// PropagationCutoff apart in absolute terms on top: its last two seeds
// open gaps of 4.7e-12 and 2.4e-11 that way.
const symmetricBound = 1e-12

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

// mirrored is the predicate lu caches as Mirrored, computed from scratch.
func mirrored(f *lu.StaticFactors) bool {
	return slices.Equal(f.LColPtr, f.URowPtr) && slices.Equal(f.LRowIdx, f.UColIdx) && bitsEqual(f.LVal, f.UVal)
}

// factorGap is max |a − b| over every factor value, and the largest
// magnitude among b's.
func factorGap(a, b *lu.StaticFactors) (gap, scale float64) {
	for _, p := range [][2][]float64{{a.LVal, b.LVal}, {a.UVal, b.UVal}, {a.D, b.D}} {
		for k, v := range p[1] {
			gap = max(gap, math.Abs(p[0][k]-v))
			scale = max(scale, math.Abs(v))
		}
	}
	return gap, scale
}

// checkSymmetricStep applies one step's terms to sym by ApplyTerms and
// to ref by the rank-1 loop, and holds sym to the symmetric path's
// promises: it was taken, the factors are still their own transpose bit
// for bit (and say so), and they lie within symmetricBound (relative)
// plus echo (absolute) of ref's. It returns the relative gap.
func checkSymmetricStep(t *testing.T, label string, sym, ref *lu.StaticFactors, ws, wr *Workspace, delta []sparse.Entry, echo float64) float64 {
	t.Helper()
	terms := SplitTerms(delta)
	if !Regroups(terms) {
		t.Fatalf("%s: a symmetric delta was refused: %v", label, delta)
	}
	var st, rt Stats
	if err := ws.ApplyTerms(sym, terms, &st); err != nil {
		t.Fatalf("%s: symmetric path: %v", label, err)
	}
	if err := wr.ApplyRank1(ref, terms, &rt); err != nil {
		t.Fatalf("%s: rank-1 path: %v", label, err)
	}
	if st.Rank1Updates != len(terms) || rt.Rank1Updates != len(terms) {
		t.Fatalf("%s: %d and %d updates counted for %d terms", label, st.Rank1Updates, rt.Rank1Updates, len(terms))
	}
	if !sym.Mirrored() || !mirrored(sym) {
		t.Fatalf("%s: factors no longer mirror themselves (cached %v)", label, sym.Mirrored())
	}
	if ref.Mirrored() != mirrored(ref) {
		t.Fatalf("%s: the rank-1 path left Mirrored %v on factors whose mirror predicate is %v", label, ref.Mirrored(), mirrored(ref))
	}
	gap, scale := factorGap(sym, ref)
	if bound := symmetricBound*scale + echo; gap > bound {
		t.Fatalf("%s: symmetric and rank-1 factors %g apart, bound %g", label, gap, bound)
	}
	return gap / scale
}

// TestSymmetricPathMatchesRank1 walks random symmetric, diagonally
// dominant sequences under the identity ordering — crosses, lone
// diagonal changes, single pairs and joined crosses — through the
// symmetric path and, on a clone, through the rank-1 loop: at every step
// the symmetric factors stay bitwise mirrored and within the bound of the
// rank-1 ones, and solve the step's matrix as a fresh factorization does.
// On these dense-valued walks the cutoff never bites: the gap stays at
// rounding level, far inside symmetricBound alone.
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
		for s := 1; s < len(mats); s++ {
			worst = max(worst, checkSymmetricStep(t, "step", sym, ref, &ws, &wr, sparse.Delta(mats[s-1], mats[s]), 0))
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

// TestSymmetricPathFallsBackToRank1: a delta that is not bitwise
// symmetric — one entry of a pair, a pair whose halves differ in the
// last bit, a position given twice — takes the rank-1 loop, bit for bit,
// and the factors it leaves say they no longer mirror.
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
		got, want := base.Clone().(*lu.StaticFactors), base.Clone().(*lu.StaticFactors)
		var st, rt Stats
		if err := new(Workspace).ApplyTerms(got, terms, &st); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := new(Workspace).ApplyRank1(want, terms, &rt); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !staticBitEqual(got, want) || st != rt {
			t.Fatalf("%s: ApplyTerms did not take the rank-1 loop (%+v against %+v)", c.name, st, rt)
		}
		if got.Mirrored() != mirrored(got) {
			t.Fatalf("%s: Mirrored %v, predicate %v", c.name, got.Mirrored(), mirrored(got))
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
// vanish fails with SingularError on the symmetric path, leaving the
// factors mirrored and the workspace clean.
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
	var ws Workspace
	var singular *lu.SingularError
	if err := ws.ApplyTerms(f, terms, nil); !errors.As(err, &singular) || singular.Pivot != 1 {
		t.Fatalf("got %v, want a SingularError at pivot 1", err)
	}
	if !f.Mirrored() || !mirrored(f) {
		t.Fatal("a failed update left the factors unmirrored")
	}
	for j := range ws.sc.y {
		if ws.sc.y[j] != 0 || ws.sc.z[j] != 0 || ws.sc.inY[j] {
			t.Fatalf("position %d of the workspace not cleared", j)
		}
	}
}

// TestMirroredIsThePredicate: the cached bit equals the predicate it
// caches after each of its writers — construction, factorization, both
// update paths, Reset, Clone and AssembleStatic — on a symmetric and an
// unsymmetric structure.
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
// the rank-1 loop on the union's factors: no panic, mirrored factors,
// within symmetricBound plus the cutoff's echo.
func FuzzSymmetricUpdate(f *testing.F) {
	f.Add([]byte{12, 0, 1, 9, 1, 2, 200, 0, 0, 50, 3, 4, 7, 0, 3, 90})
	f.Add([]byte{6, 0, 5, 100, 1, 5, 30, 5, 5, 20, 2, 3, 40, 2, 2, 9})
	f.Add([]byte{20, 3, 3, 1, 3, 7, 2, 7, 3, 3, 3, 11, 4, 11, 3, 5, 19, 0, 6})
	f.Add([]byte("7000000000b00CY0Cl0Y.\xf4!60Ab .100207A0!z0z70"))
	f.Add([]byte("9xz\x0exb0a,0aA00000001,00002c0800zg0100170\xdbA0bc09800"))
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
		ref := sym.Clone().(*lu.StaticFactors)
		checkSymmetricStep(t, "fuzz", sym, ref, new(Workspace), new(Workspace), sparse.Delta(a, b), PropagationCutoff)
	})
}
