package bennett

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// referenceSweep is one structural walk of a step as a single loop with
// the promotions inline: every write to a position outside the support
// promotes it, whatever its magnitude. twoSided selects the update step
// over the propagate-only one.
func referenceSweep(twoSided bool, idx []int, vals, vec []float64, in []bool, di, c, dip, xi float64) (met int, promoted []int) {
	for p, j := range idx {
		v := vals[p]
		if twoSided {
			met += b2i(in[j])
			vals[p] = (di*v + c*vec[j]) / dip
		}
		if v != 0 {
			vec[j] -= xi * v
			if !in[j] {
				in[j] = true
				promoted = append(promoted, j)
			}
		}
	}
	return met, promoted
}

// sweepCase is one structural column against one state of the work
// vector: vec and in are dense, length n.
type sweepCase struct {
	name string
	idx  []int
	vals []float64
	vec  []float64
	in   []bool
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkSweeps runs c through the kernel-driven sweeps and through the
// reference loop, both steps, and requires every output to agree: value
// bits, vector bits, support flags, the member count, and the promoted
// list in order.
func checkSweeps(t *testing.T, c sweepCase) {
	t.Helper()
	const di, coef, dip, xi = 2.0, 0.5, 2.5, 1.0
	for _, twoSided := range []bool{true, false} {
		vals, vec, in := slices.Clone(c.vals), slices.Clone(c.vec), slices.Clone(c.in)
		sc := newScratch(len(c.vec))
		met := 0
		if twoSided {
			met = sc.sweepUpdate(c.idx, vals, vec, in, di, coef, dip, xi)
		} else {
			sc.sweepPropagate(c.idx, vals, vec, in, xi)
		}
		refVals, refVec, refIn := slices.Clone(c.vals), slices.Clone(c.vec), slices.Clone(c.in)
		refMet, refPromoted := referenceSweep(twoSided, c.idx, refVals, refVec, refIn, di, coef, dip, xi)
		if met != refMet || !slices.Equal(sc.newIdx, refPromoted) {
			t.Errorf("%s (two-sided %v): met %d promoted %v, reference %d %v",
				c.name, twoSided, met, sc.newIdx, refMet, refPromoted)
		}
		if !bitsEqual(vals, refVals) || !bitsEqual(vec, refVec) || !slices.Equal(in, refIn) {
			t.Errorf("%s (two-sided %v): values, vector or flags differ from the reference loop\n vals %v\n  ref %v\n  vec %v\n  ref %v",
				c.name, twoSided, vals, refVals, vec, refVec)
		}
	}
}

// TestKernelsMatchReferenceLoop holds the leaf kernels and their
// re-entry protocol against the one-loop reference on columns built to
// force every early exit — promotions at a column's first and last
// position, back to back, of tiny values as of large ones: every
// out-of-support write promotes — and on random ones.
func TestKernelsMatchReferenceLoop(t *testing.T) {
	const n = 8
	const tiny = 1e-11 // propagates to a tiny value, promoted all the same
	dense := func(at map[int]float64) []float64 {
		v := make([]float64, n)
		for j, x := range at {
			v[j] = x
		}
		return v
	}
	flags := func(js ...int) []bool {
		f := make([]bool, n)
		for _, j := range js {
			f[j] = true
		}
		return f
	}
	for _, c := range []sweepCase{
		{"empty column", nil, nil, dense(nil), flags()},
		{"lone promotion", []int{3}, []float64{0.5}, dense(nil), flags()},
		{"lone tiny write promotes", []int{3}, []float64{tiny}, dense(nil), flags()},
		{"all members", []int{1, 4, 5}, []float64{0.5, 0, -0.25}, dense(map[int]float64{1: 1, 4: 2, 5: 3}), flags(1, 4, 5)},
		{"tiny first, large last", []int{1, 2, 4, 6}, []float64{tiny, 0.3, 0, 0.7}, dense(map[int]float64{2: 0.25}), flags(2)},
		{"large first, tiny last, every position stops", []int{0, 1, 2, 7}, []float64{0.4, 0.6, tiny / 10, tiny}, dense(nil), flags()},
		{"zero factor values write nothing", []int{2, 5, 6}, []float64{0, 0.5, 0}, dense(map[int]float64{5: 1}), flags(5)},
	} {
		checkSweeps(t, c)
	}

	rng := xrand.New(4714)
	for trial := 0; trial < 300; trial++ {
		dim := 1 + rng.Intn(40)
		c := sweepCase{name: "random", vec: make([]float64, dim), in: make([]bool, dim)}
		for j := 0; j < dim; j++ {
			if c.in[j] = rng.Intn(3) == 0; c.in[j] {
				c.vec[j] = rng.Float64()*2 - 1
			}
			if rng.Intn(2) == 0 {
				continue
			}
			c.idx = append(c.idx, j)
			switch rng.Intn(4) {
			case 0:
				c.vals = append(c.vals, 0)
			case 1:
				c.vals = append(c.vals, tiny)
			default:
				c.vals = append(c.vals, rng.Float64()*2-1)
			}
		}
		checkSweeps(t, c)
	}
}

// TestWorkspaceCleanAfterSingularUpdate: a SingularError raised
// mid-recurrence — after pivot 0's kernels promoted y[1], z[1] and the
// tiny y[2] — leaves a workspace whose next update is bit-identical to a
// fresh one's. (ErrOutOfPattern's turn is
// TestCountedExtrasOutsideTheStructure.)
func TestWorkspaceCleanAfterSingularUpdate(t *testing.T) {
	// [[2,-1],[-1,1]] ⊕ 3·I with a negligible A(2,0): D = (2, ½, 3, …),
	// L(1,0) = U(0,1) = -½. Taking 1 off A(0,0) makes the leading 2×2
	// block exactly singular, which the recurrence meets at pivot 1.
	n := 5
	c := sparse.NewCOO(n)
	c.Add(0, 0, 2)
	c.Add(0, 1, -1)
	c.Add(1, 0, -1)
	c.Add(1, 1, 1)
	c.Add(2, 0, 2e-11)
	for i := 2; i < n; i++ {
		c.Add(i, i, 3)
	}
	a := c.ToCSR()
	build := func() *lu.StaticFactors {
		f := lu.NewStaticFactors(lu.Symbolic(a.Pattern()))
		if err := f.Factorize(a); err != nil {
			t.Fatal(err)
		}
		return f
	}
	term := func(v float64) []Rank1Term {
		return []Rank1Term{{Key: 0, ByCol: true, W: []sparse.Entry{{Row: 0, Val: v}}}}
	}
	var ws Workspace
	var st Stats
	var singular *lu.SingularError
	if err := ws.ApplyTerms(build(), term(-1), &st); !errors.As(err, &singular) || singular.Pivot != 1 {
		t.Fatalf("got %v, want a SingularError at pivot 1", err)
	}
	if st.StepsTouched != 2 {
		t.Fatalf("the failed update touched %d steps, want pivot 0 done and pivot 1 refused", st.StepsTouched)
	}
	reused, fresh := build(), build()
	if err := ws.ApplyTerms(reused, term(0.2), nil); err != nil {
		t.Fatal(err)
	}
	if err := new(Workspace).ApplyTerms(fresh, term(0.2), nil); err != nil {
		t.Fatal(err)
	}
	if !staticBitEqual(reused, fresh) {
		t.Errorf("workspace reused after a singular update diverged: L(1,0) reused %v, fresh %v; L(2,0) reused %v, fresh %v",
			reused.LAt(1, 0), fresh.LAt(1, 0), reused.LAt(2, 0), fresh.LAt(2, 0))
	}
}
