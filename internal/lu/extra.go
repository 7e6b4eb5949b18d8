package lu

import (
	"math"

	"repro/internal/sparse"
)

// The helpers in this file are conveniences a downstream user of the
// factorization needs in practice: determinants (free from D) and a
// cheap condition diagnostic. None of them alter the factors.

// LogDet returns log|det(A)| and the sign of the determinant computed
// from the pivots of the (reordered) factorization, adjusted by the
// ordering's permutation signs. A zero sign means a pivot was exactly
// zero (which the factorizers reject, so it indicates misuse).
func (s *Solver) LogDet() (logAbs float64, sign int) {
	sign = permSign(s.O.Row) * permSign(s.O.Col)
	var d []float64
	switch f := s.F.(type) {
	case *StaticFactors:
		d = f.D
	case *DynamicFactors:
		d = f.D
	default:
		panic("lu: unknown factor container")
	}
	for _, v := range d {
		if v == 0 {
			return math.Inf(-1), 0
		}
		if v < 0 {
			sign = -sign
			v = -v
		}
		logAbs += math.Log(v)
	}
	return logAbs, sign
}

// permSign computes the parity of a permutation (+1 even, −1 odd) by
// cycle counting.
func permSign(p sparse.Perm) int {
	seen := make([]bool, len(p))
	sign := 1
	for i := range p {
		if seen[i] {
			continue
		}
		length := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}

// PivotRange returns the smallest and largest pivot magnitudes — a
// cheap growth/conditioning diagnostic (a huge ratio warns that the
// no-pivoting factorization may be inaccurate for this matrix class).
func PivotRange(f Factors) (minAbs, maxAbs float64) {
	var d []float64
	switch t := f.(type) {
	case *StaticFactors:
		d = t.D
	case *DynamicFactors:
		d = t.D
	default:
		panic("lu: unknown factor container")
	}
	minAbs, maxAbs = math.Inf(1), 0
	for _, v := range d {
		a := math.Abs(v)
		if a < minAbs {
			minAbs = a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	return minAbs, maxAbs
}
