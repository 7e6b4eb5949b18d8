package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestCOOToCSRMergesDuplicates(t *testing.T) {
	c := NewCOO(3)
	c.Add(0, 1, 2)
	c.Add(0, 1, 3)
	c.Add(2, 0, -1)
	c.Add(1, 1, 4)
	m := c.ToCSR()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if got := m.At(2, 0); got != -1 {
		t.Errorf("At(2,0) = %v, want -1", got)
	}
	if got := m.At(1, 1); got != 4 {
		t.Errorf("At(1,1) = %v, want 4", got)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCOOKeepsExplicitZeros(t *testing.T) {
	c := NewCOO(2)
	c.Add(0, 1, 0)
	m := c.ToCSR()
	if !m.Has(0, 1) {
		t.Error("explicit zero dropped from pattern")
	}
	if m.At(0, 1) != 0 {
		t.Errorf("At(0,1) = %v, want 0", m.At(0, 1))
	}
}

func TestCOOCancellationKept(t *testing.T) {
	c := NewCOO(2)
	c.Add(1, 0, 5)
	c.Add(1, 0, -5)
	m := c.ToCSR()
	if !m.Has(1, 0) {
		t.Error("cancelled duplicate should remain in the pattern as an explicit zero")
	}
}

func TestCSRRowSorted(t *testing.T) {
	c := NewCOO(4)
	for _, j := range []int{3, 1, 0, 2} {
		c.Add(1, j, float64(j))
	}
	m := c.ToCSR()
	cols, vals := m.Row(1)
	for k := 1; k < len(cols); k++ {
		if cols[k-1] >= cols[k] {
			t.Fatalf("row not sorted: %v", cols)
		}
	}
	for k, j := range cols {
		if vals[k] != float64(j) {
			t.Errorf("value misaligned at col %d: %v", j, vals[k])
		}
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func randomCSR(rng *xrand.Rand, n, nnz int) *CSR {
	c := NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2+rng.Float64()) // nonzero diagonal
	}
	for k := 0; k < nnz; k++ {
		c.Add(rng.Intn(n), rng.Intn(n), rng.Float64()*2-1)
	}
	return c.ToCSR()
}

func TestTransposeInvolution(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 1+rng.Intn(30), rng.Intn(120))
		tt := m.Transpose().Transpose()
		if !m.EqualApprox(tt, 0) {
			t.Fatalf("transpose not an involution (trial %d)", trial)
		}
	}
}

func TestTransposeEntry(t *testing.T) {
	rng := xrand.New(8)
	m := randomCSR(rng, 20, 80)
	mt := m.Transpose()
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermuteMatchesDense(t *testing.T) {
	rng := xrand.New(9)
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(20)
		nnz := 3 * n
		if trial >= 10 {
			// Rows long enough to leave sortRow's short-row path, and the
			// stored rows must come out in column order either way.
			n, nnz = 60, 2400
		}
		m := randomCSR(rng, n, nnz)
		o := Ordering{Row: Perm(rng.Perm(n)), Col: Perm(rng.Perm(n))}
		p := m.Permute(o)
		rowPtr, colIdx, vals := p.Arrays()
		if _, err := CSRFromArrays(n, rowPtr, colIdx, vals); p.NNZ() != m.NNZ() || err != nil {
			t.Fatalf("trial %d: permuted matrix has %d entries (want %d), arrays valid: %v", trial, p.NNZ(), m.NNZ(), err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := p.At(i, j), m.At(o.Row[i], o.Col[j]); got != want {
					t.Fatalf("Permute(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestPermuteIdentityIsNoop(t *testing.T) {
	rng := xrand.New(10)
	m := randomCSR(rng, 15, 40)
	p := m.Permute(IdentityOrdering(15))
	if !m.EqualApprox(p, 0) {
		t.Error("identity ordering changed the matrix")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := xrand.New(11)
	n := 25
	m := randomCSR(rng, n, 100)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	got := m.MulVec(x)
	d := m.Dense()
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += d[i][j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestMulAgainstDense(t *testing.T) {
	rng := xrand.New(12)
	n := 18
	a := randomCSR(rng, n, 60)
	b := randomCSR(rng, n, 60)
	got := a.Mul(b).Dense()
	da, db := a.Dense(), b.Dense()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for k := 0; k < n; k++ {
				want += da[i][k] * db[k][j]
			}
			if math.Abs(got[i][j]-want) > 1e-10 {
				t.Fatalf("Mul(%d,%d) = %v, want %v", i, j, got[i][j], want)
			}
		}
	}
}

func TestAddSub(t *testing.T) {
	rng := xrand.New(13)
	n := 20
	a := randomCSR(rng, n, 70)
	b := randomCSR(rng, n, 70)
	sum := a.Add(b)
	diff := sum.Sub(b)
	if !diff.EqualApprox(a, 1e-12) {
		t.Error("(a+b)-b != a")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := xrand.New(14)
	n := 20
	a := randomCSR(rng, n, 60)
	b := randomCSR(rng, n, 60)
	d := Delta(a, b)
	c := NewCOO(n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			c.Add(i, j, vals[k])
		}
	}
	for _, e := range d {
		c.Add(e.Row, e.Col, e.Val)
	}
	if got := c.ToCSR(); !got.EqualApprox(b, 1e-12) {
		t.Error("a + Delta(a,b) != b")
	}
}

func TestDeltaEmptyForEqual(t *testing.T) {
	rng := xrand.New(15)
	a := randomCSR(rng, 12, 40)
	if d := Delta(a, a); len(d) != 0 {
		t.Errorf("Delta(a,a) has %d entries, want 0", len(d))
	}
}

func TestScale(t *testing.T) {
	rng := xrand.New(16)
	a := randomCSR(rng, 10, 30)
	s := a.Scale(-2)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if s.At(i, j) != -2*a.At(i, j) {
				t.Fatalf("Scale mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	c := NewCOO(3)
	c.Add(0, 1, 2)
	c.Add(1, 0, 2)
	c.Add(2, 2, 1)
	if !c.ToCSR().IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	c.Add(0, 2, 1)
	if c.ToCSR().IsSymmetric(0) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

// Property: Permute is invertible — permuting by O then by the inverse
// ordering recovers the original matrix.
func TestPermuteInverseProperty(t *testing.T) {
	rng := xrand.New(17)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(25)
		m := randomCSR(r, n, 4*n)
		o := Ordering{Row: Perm(r.Perm(n)), Col: Perm(r.Perm(n))}
		inv := Ordering{Row: o.Row.Inverse(), Col: o.Col.Inverse()}
		back := m.Permute(o).Permute(inv)
		return m.EqualApprox(back, 0)
	}
	cfg := &quick.Config{MaxCount: 30, Values: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPermuteInvMatchesPermute(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(20)
		m := randomCSR(rng, n, 3*n)
		o := Ordering{Row: Perm(rng.Perm(n)), Col: Perm(rng.Perm(n))}
		inv := o.Col.Inverse()
		want := m.Permute(o)
		got := m.PermuteInv(o, inv)
		if !want.EqualApprox(got, 0) {
			t.Fatalf("PermuteInv differs from Permute")
		}
	}
}

// TestToCSRSortedRowsSumInArrivalOrder: a row whose entries arrive in
// column order is not sorted again, so duplicates are summed left to
// right as they came — the order floating point cares about, and the
// one ToCSR has always produced for such rows (its sort leaves sorted
// input where it is). Long rows, so the check is not about a small-row
// special case of the sort.
func TestToCSRSortedRowsSumInArrivalOrder(t *testing.T) {
	const n, width = 64, 40
	c := NewCOO(n)
	c.Reserve(3 * width)
	want := make([]float64, width)
	for j := 0; j < width; j++ {
		// (big + small) − big and (big − big) + small differ in the last
		// bits; only the arrival order gives the first.
		terms := []float64{1e16, float64(j) + 0.5, -1e16}
		sum := 0.0
		for _, v := range terms {
			c.Add(7, j, v)
			sum += v
		}
		want[j] = sum
	}
	// An unsorted row beside it still comes out sorted and merged.
	c.Add(9, 5, 1)
	c.Add(9, 2, 2)
	c.Add(9, 5, 3)
	m := c.ToCSR()
	cols, vals := m.Row(7)
	if len(cols) != width {
		t.Fatalf("row 7 has %d entries, want %d", len(cols), width)
	}
	for j := range cols {
		if cols[j] != j || vals[j] != want[j] {
			t.Fatalf("row 7 entry %d: (%d, %v), want (%d, %v)", j, cols[j], vals[j], j, want[j])
		}
	}
	if cols, vals := m.Row(9); len(cols) != 2 || cols[0] != 2 || cols[1] != 5 || vals[0] != 2 || vals[1] != 4 {
		t.Errorf("row 9 = %v %v, want [2 5] [2 4]", cols, vals)
	}
}
