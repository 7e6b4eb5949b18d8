package order

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

func randomPattern(rng *xrand.Rand, n, extra int, symmetric bool) *sparse.Pattern {
	coords := make([]sparse.Coord, 0, n+2*extra)
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
	}
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		coords = append(coords, sparse.Coord{Row: i, Col: j})
		if symmetric {
			coords = append(coords, sparse.Coord{Row: j, Col: i})
		}
	}
	return sparse.NewPattern(n, coords)
}

// arrowPattern has a dense first row and column: natural order fills
// completely, while any sensible fill-reducing order eliminates the
// hub last and produces zero fill.
func arrowPattern(n int) *sparse.Pattern {
	coords := []sparse.Coord{}
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
		if i > 0 {
			coords = append(coords, sparse.Coord{Row: i, Col: 0}, sparse.Coord{Row: 0, Col: i})
		}
	}
	return sparse.NewPattern(n, coords)
}

func TestMarkowitzSSPMatchesSymbolic(t *testing.T) {
	rng := xrand.New(600)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		p := randomPattern(rng, n, 3*n, false)
		res := Markowitz(p)
		if !res.Ordering.Valid() {
			t.Fatalf("trial %d: invalid ordering", trial)
		}
		if got := lu.SymbolicSize(p, res.Ordering); got != res.SSPSize {
			t.Fatalf("trial %d: reported SSPSize %d, symbolic says %d", trial, res.SSPSize, got)
		}
	}
}

func TestMinDegreeSSPMatchesSymbolic(t *testing.T) {
	rng := xrand.New(601)
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		p := randomPattern(rng, n, 2*n, true)
		res := MinDegree(p)
		if !res.Ordering.Valid() {
			t.Fatalf("trial %d: invalid ordering", trial)
		}
		if got := lu.SymbolicSize(p, res.Ordering); got != res.SSPSize {
			t.Fatalf("trial %d: reported SSPSize %d, symbolic says %d", trial, res.SSPSize, got)
		}
	}
}

func TestMarkowitzBeatsNaturalOnArrow(t *testing.T) {
	n := 12
	p := arrowPattern(n)
	nat := Natural(p)
	mk := Markowitz(p)
	if nat.SSPSize != n*n {
		t.Errorf("natural arrow ssp = %d, want full %d", nat.SSPSize, n*n)
	}
	// Optimal: eliminate spokes first, hub last — no fill at all.
	want := n + 2*(n-1)
	if mk.SSPSize != want {
		t.Errorf("Markowitz arrow ssp = %d, want %d", mk.SSPSize, want)
	}
}

func TestMinDegreeOnArrow(t *testing.T) {
	n := 9
	p := arrowPattern(n)
	res := MinDegree(p)
	if want := n + 2*(n-1); res.SSPSize != want {
		t.Errorf("MinDegree arrow ssp = %d, want %d", res.SSPSize, want)
	}
}

func TestMarkowitzNeverWorseThanNaturalOnAverage(t *testing.T) {
	// Not a theorem, but on random patterns the greedy order should win
	// in aggregate by a wide margin; a regression here signals a broken
	// cost function.
	rng := xrand.New(602)
	natTotal, mkTotal := 0, 0
	for trial := 0; trial < 15; trial++ {
		n := 20 + rng.Intn(20)
		p := randomPattern(rng, n, 3*n, false)
		natTotal += Natural(p).SSPSize
		mkTotal += Markowitz(p).SSPSize
	}
	if mkTotal >= natTotal {
		t.Errorf("Markowitz total %d not better than natural total %d", mkTotal, natTotal)
	}
}

func TestMarkowitzDeterministic(t *testing.T) {
	rng := xrand.New(603)
	p := randomPattern(rng, 25, 80, false)
	a := Markowitz(p)
	b := Markowitz(p)
	for i := range a.Ordering.Row {
		if a.Ordering.Row[i] != b.Ordering.Row[i] {
			t.Fatal("Markowitz not deterministic")
		}
	}
	if a.SSPSize != b.SSPSize {
		t.Fatal("SSPSize not deterministic")
	}
}

// TestMinDegreeMatchesMarkowitzOnSymmetric: on a symmetric pattern the
// cost r·c is d² and both break ties by index, so Markowitz — which then
// runs the symmetric elimination itself — MinDegree and the two-list
// elimination return the same pivots, size and structure, row for row.
// On an unsymmetric pattern Markowitz is the two-list elimination.
func TestMinDegreeMatchesMarkowitzOnSymmetric(t *testing.T) {
	same := func(name string, got, want Result) {
		t.Helper()
		if !slices.Equal(got.Ordering.Row, want.Ordering.Row) || got.SSPSize != want.SSPSize {
			t.Fatalf("%s: pivots %v size %d, want %v size %d", name, got.Ordering.Row, got.SSPSize, want.Ordering.Row, want.SSPSize)
		}
		for i := 0; i < want.Symbolic.N(); i++ {
			if !slices.Equal(got.Symbolic.LRow(i), want.Symbolic.LRow(i)) || !slices.Equal(got.Symbolic.URow(i), want.Symbolic.URow(i)) {
				t.Fatalf("%s: structure row %d differs", name, i)
			}
		}
	}
	rng := xrand.New(604)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		sym := randomPattern(rng, n, (1+rng.Intn(3))*n, true)
		general, _ := eliminateWith(sym, false, denseReady)
		same(fmt.Sprint("symmetric/", trial, " Markowitz"), Markowitz(sym), general)
		same(fmt.Sprint("symmetric/", trial, " MinDegree"), MinDegree(sym), general)

		unsym := randomPattern(rng, n, (1+rng.Intn(3))*n, false)
		if !unsym.Symmetric() {
			ref, _ := eliminateWith(unsym, false, denseReady)
			same(fmt.Sprint("unsymmetric/", trial, " Markowitz"), Markowitz(unsym), ref)
		}
	}
}

func TestNaturalIdentity(t *testing.T) {
	p := randomPattern(xrand.New(605), 10, 20, false)
	res := Natural(p)
	for i, v := range res.Ordering.Row {
		if v != i {
			t.Fatal("Natural ordering is not the identity")
		}
	}
}

func TestMarkowitzDiagonalPattern(t *testing.T) {
	p := randomPattern(xrand.New(606), 8, 0, false)
	res := Markowitz(p)
	if res.SSPSize != 8 {
		t.Errorf("diagonal ssp = %d, want 8", res.SSPSize)
	}
}

func TestMarkowitzFactorizable(t *testing.T) {
	// The ordering must keep the diagonal structurally non-zero so the
	// pivot-free factorizer works on diagonally dominant matrices.
	rng := xrand.New(607)
	n := 30
	c := sparse.NewCOO(n)
	rowAbs := make([]float64, n)
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.Float64() - 0.5
		c.Add(i, j, v)
		rowAbs[i] += 1 // overestimate |v|
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, rowAbs[i]+1)
	}
	a := c.ToCSR()
	res := Markowitz(a.Pattern())
	if _, err := lu.FactorizeOrdered(a, res.Ordering); err != nil {
		t.Fatalf("Markowitz-ordered dominant matrix failed to factorize: %v", err)
	}
}
