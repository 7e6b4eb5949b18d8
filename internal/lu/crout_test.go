package lu

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// factorizeBySearch is FactorizeWith as it was before the cursor arrays:
// a transpose of a per call, and a binary search per structural entry for
// where column m of L reaches row k and row m of U passes column k. It
// stays as the reference the cursors are held against, bit for bit.
func (f *StaticFactors) factorizeBySearch(a *sparse.CSR) error {
	f.Reset()
	n := f.n
	at := a.Transpose()
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = 0
		lo, hi := f.LColPtr[k], f.LColPtr[k+1]
		for p := lo; p < hi; p++ {
			w[f.LRowIdx[p]] = 0
		}
		cols, vals := at.Row(k)
		for t, i := range cols {
			if i >= k {
				w[i] = vals[t]
			}
		}
		for q := f.UColPtr[k]; q < f.UColPtr[k+1]; q++ {
			m := f.UColRows[q]
			c := f.D[m] * f.UVal[f.UColPos[q]]
			if c == 0 {
				continue
			}
			mlo, mhi := f.LColPtr[m], f.LColPtr[m+1]
			rows := f.LRowIdx[mlo:mhi]
			for t := sort.SearchInts(rows, k); t < len(rows); t++ {
				w[rows[t]] -= f.LVal[mlo+t] * c
			}
		}
		d := w[k]
		if math.Abs(d) < PivotTolerance {
			return &SingularError{Pivot: k, Value: d}
		}
		f.D[k] = d
		for p := lo; p < hi; p++ {
			f.LVal[p] = w[f.LRowIdx[p]] / d
		}
		ulo, uhi := f.URowPtr[k], f.URowPtr[k+1]
		for p := ulo; p < uhi; p++ {
			w[f.UColIdx[p]] = 0
		}
		rcols, rvals := a.Row(k)
		for t, j := range rcols {
			if j > k {
				w[j] = rvals[t]
			}
		}
		for q := f.LRowPtr[k]; q < f.LRowPtr[k+1]; q++ {
			m := f.LRowCols[q]
			c := f.LVal[f.LRowPos[q]] * f.D[m]
			if c == 0 {
				continue
			}
			mlo, mhi := f.URowPtr[m], f.URowPtr[m+1]
			mcols := f.UColIdx[mlo:mhi]
			for t := sort.SearchInts(mcols, k+1); t < len(mcols); t++ {
				w[mcols[t]] -= c * f.UVal[mlo+t]
			}
		}
		for p := ulo; p < uhi; p++ {
			f.UVal[p] = w[f.UColIdx[p]] / d
		}
	}
	return nil
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkCroutAgainstSearch factorizes a into two containers over sym, by
// cursors on ws and by the search reference, and holds every factor bit —
// and the error, pivot and value of a failure — equal.
func checkCroutAgainstSearch(t *testing.T, name string, sym *SymbolicLU, a *sparse.CSR, ws *Workspace) (*StaticFactors, error) {
	t.Helper()
	got, want := NewStaticFactors(sym), NewStaticFactors(sym)
	err, wantErr := got.FactorizeWith(a, ws), want.factorizeBySearch(a)
	var se, wantSE *SingularError
	if errors.As(err, &se) != errors.As(wantErr, &wantSE) || (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if se != nil && (se.Pivot != wantSE.Pivot || math.Float64bits(se.Value) != math.Float64bits(wantSE.Value)) {
		t.Fatalf("%s: %v, reference %v", name, se, wantSE)
	}
	if !sameBits(got.LVal, want.LVal) || !sameBits(got.UVal, want.UVal) || !sameBits(got.D, want.D) {
		t.Fatalf("%s: factors differ from the search-based reference", name)
	}
	// A cursor left behind would cost time, not bits (it re-reads entries
	// above the front into positions nothing reads again), so the values
	// cannot show it: a finished run has passed every entry.
	if err == nil && (!slices.Equal(ws.lfirst, got.LColPtr[1:]) || !slices.Equal(ws.ufirst, got.URowPtr[1:])) {
		t.Fatalf("%s: cursors did not end at the ends of their columns and rows", name)
	}
	return got, err
}

// unsymmetricDominant is randomDominant with two thirds of the draws
// below the diagonal dropped: U fills and L stays thin, so the two
// structures differ and a row of L and a column of U pass different
// entries at the same step.
func unsymmetricDominant(rng *xrand.Rand, n, extra int) *sparse.CSR {
	c := sparse.NewCOO(n)
	rowAbs := make([]float64, n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || (i > j && rng.Intn(3) > 0) {
			continue
		}
		v := rng.Float64()*2 - 1
		c.Add(i, j, v)
		rowAbs[i] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return c.ToCSR()
}

// TestFactorizeWithMatchesSearch holds the cursor-driven Crout loop
// against the search-based one over tight structures, cluster-style
// USSPs wider than the matrix (structural zeros, hence the c == 0
// skips), lopsided structures where U(m,k) is present and L(k,m) is not,
// and one Workspace carried across growing and shrinking dimensions.
func TestFactorizeWithMatchesSearch(t *testing.T) {
	var ws Workspace // one for the whole test: n goes up and down
	rng := xrand.New(2400)
	sizes := []int{1, 2, 40, 7, 90, 3, 64, 65, 12, 130, 5}
	for trial, n := range sizes {
		a := randomDominant(rng, n, 4*n)
		checkCroutAgainstSearch(t, fmt.Sprint("tight n=", n), Symbolic(a.Pattern()), a, &ws)

		// A USSP over a union of three patterns: a uses part of it.
		union := a.Pattern().Union(randomDominant(rng, n, 3*n).Pattern()).Union(randomDominant(rng, n, 3*n).Pattern())
		wide, _ := checkCroutAgainstSearch(t, fmt.Sprint("ussp n=", n), Symbolic(union), a, &ws)
		if n >= 40 && wide.NNZActual() == wide.Size() {
			t.Fatalf("trial %d: the USSP container has no structural zero, so no c == 0 skip was taken", trial)
		}

		u := unsymmetricDominant(rng, n, 5*n)
		sym := Symbolic(u.Pattern())
		f, _ := checkCroutAgainstSearch(t, fmt.Sprint("unsymmetric n=", n), sym, u, &ws)
		if n >= 40 {
			lopsided := 0
			for k := 0; k < n; k++ {
				for _, m := range f.UColRows[f.UColPtr[k]:f.UColPtr[k+1]] {
					if f.lFind(k, m) < 0 {
						lopsided++ // U(m,k) in the structure, L(k,m) not
					}
				}
			}
			if lopsided == 0 {
				t.Fatalf("trial %d: no U(m,k) without L(k,m); the structure is symmetric", trial)
			}
		}
	}
}

// TestFactorizeWithSingularMatchesSearch stops both loops at the same
// pivot with the same value, early and late in the matrix, and leaves
// the workspace fit for the next factorization.
func TestFactorizeWithSingularMatchesSearch(t *testing.T) {
	var ws Workspace
	rng := xrand.New(2401)
	n := 30
	a := randomDominant(rng, n, 4*n)
	sym := Symbolic(a.Pattern())
	for _, k := range []int{0, 11, n - 1} {
		// Row k keeps only a negligible diagonal.
		var entries []sparse.Entry
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			for t, j := range cols {
				if i != k {
					entries = append(entries, sparse.Entry{Row: i, Col: j, Val: vals[t]})
				}
			}
		}
		entries = append(entries, sparse.Entry{Row: k, Col: k, Val: 1e-14})
		bad := sparse.NewCSRFromEntries(n, entries)
		_, err := checkCroutAgainstSearch(t, fmt.Sprint("singular at ", k), sym, bad, &ws)
		var se *SingularError
		if !errors.As(err, &se) || se.Pivot != k {
			t.Fatalf("row %d made negligible: error %v", k, err)
		}
		if _, err := checkCroutAgainstSearch(t, "after the failure", sym, a, &ws); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFactorizeWithZeroAlloc: on a warm workspace a numeric
// factorization allocates nothing — no transpose, no cursors, no
// vector — at the warm dimension and below it.
func TestFactorizeWithZeroAlloc(t *testing.T) {
	rng := xrand.New(2402)
	big, small := randomDominant(rng, 80, 400), randomDominant(rng, 30, 120)
	fb, fs := NewStaticFactors(Symbolic(big.Pattern())), NewStaticFactors(Symbolic(small.Pattern()))
	var ws Workspace
	step := func() {
		if err := fb.FactorizeWith(big, &ws); err != nil {
			t.Fatal(err)
		}
		if err := fs.FactorizeWith(small, &ws); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm: the column view, the cursors and the vector reach their size
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("%v allocations per warm pair of factorizations, want 0", allocs)
	}
}
