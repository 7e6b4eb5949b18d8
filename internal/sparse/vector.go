package sparse

import "math"

// Dot returns the inner product of two equal-length dense vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// NormInfDiff returns max_i |a[i] − b[i]|, the usual convergence and
// accuracy metric for iterative solvers and factor-update tests.
func NormInfDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("sparse: NormInfDiff length mismatch")
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Scale multiplies x by s in place and returns x.
func Scale(x []float64, s float64) []float64 {
	for i := range x {
		x[i] *= s
	}
	return x
}

// Basis returns the length-n standard basis vector e_u scaled by v.
func Basis(n, u int, v float64) []float64 {
	x := make([]float64, n)
	x[u] = v
	return x
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}
