package lu

import (
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// denseDet computes a determinant by cofactor-free Gaussian elimination
// with partial pivoting (test oracle, small n only).
func denseDet(a *sparse.CSR) float64 {
	n := a.N()
	m := a.Dense()
	det := 1.0
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(m[i][k]) > math.Abs(m[p][k]) {
				p = i
			}
		}
		if m[p][k] == 0 {
			return 0
		}
		if p != k {
			m[p], m[k] = m[k], m[p]
			det = -det
		}
		det *= m[k][k]
		for i := k + 1; i < n; i++ {
			f := m[i][k] / m[k][k]
			for j := k; j < n; j++ {
				m[i][j] -= f * m[k][j]
			}
		}
	}
	return det
}

func TestLogDetMatchesDense(t *testing.T) {
	rng := xrand.New(2000)
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(10)
		a := randomDominant(rng, n, 3*n)
		o := sparse.Ordering{Row: sparse.Perm(rng.Perm(n)), Col: sparse.Perm(rng.Perm(n))}
		s, err := FactorizeOrdered(a, o)
		if err != nil {
			continue
		}
		logAbs, sign := s.LogDet()
		want := denseDet(a)
		got := float64(sign) * math.Exp(logAbs)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("trial %d: det = %v, want %v", trial, got, want)
		}
	}
}

func TestPermSign(t *testing.T) {
	if permSign(sparse.IdentityPerm(5)) != 1 {
		t.Error("identity should be even")
	}
	if permSign(sparse.Perm{1, 0, 2}) != -1 {
		t.Error("single swap should be odd")
	}
	if permSign(sparse.Perm{1, 2, 0}) != 1 {
		t.Error("3-cycle should be even")
	}
}

func TestPivotRange(t *testing.T) {
	rng := xrand.New(2003)
	a := randomDominant(rng, 15, 40)
	f := NewStaticFactors(Symbolic(a.Pattern()))
	if err := f.Factorize(a); err != nil {
		t.Fatal(err)
	}
	lo, hi := PivotRange(f)
	if lo <= 0 || hi < lo {
		t.Errorf("pivot range (%v,%v) implausible", lo, hi)
	}
	d := NewDynamicFactors(f)
	lo2, hi2 := PivotRange(d)
	if lo2 != lo || hi2 != hi {
		t.Error("dynamic pivot range differs from static")
	}
}
