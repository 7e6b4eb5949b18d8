package lu

import (
	"slices"

	"repro/internal/sparse"
)

// This file keeps an ordering through growth: a pattern that gains
// positions under an ordering it already has a symbolic structure for
// gets its grown structure by an incremental closure (SymbolicLU.Grow),
// and the factors of the old structure move into a container of the
// grown one unchanged (StaticFactors.Grown). Factors in a structure S
// are factors in any S′ ⊇ S, so a Bennett update from there reaches the
// grown matrix's factors without a fresh ordering or decomposition.

// Structure returns the container's symbolic structure: a SymbolicLU
// whose rows are views of the container's own index arrays (L's rows
// are its cross view, which this builds if missing — so, like
// EnsureCrossViews, only the container's exclusive owner may call it).
// Nothing is copied; the rows are read-only, as the arrays are.
func (f *StaticFactors) Structure() *SymbolicLU {
	f.EnsureCrossViews()
	s := &SymbolicLU{n: f.n, lrows: make([][]int, f.n), urows: make([][]int, f.n)}
	for i := 0; i < f.n; i++ {
		lo, hi := f.LRowPtr[i], f.LRowPtr[i+1]
		s.lrows[i] = f.LRowCols[lo:hi:hi]
		lo, hi = f.URowPtr[i], f.URowPtr[i+1]
		s.urows[i] = f.UColIdx[lo:hi:hi]
	}
	return s
}

// Grow returns the symbolic structure of s's pattern with the positions
// add (in s's index space, any order, duplicates, diagonal positions and
// positions s already holds allowed) set: exactly Symbolic of the grown
// pattern, row for row. s is closed under elimination, so the closure
// of s ∪ add is the closure of the pattern ∪ add, and only rows that
// change need computing:
//
//   - a row changes if it gains a position of add, or if a row j of its
//     L reaches has gained U columns: the closure of row i reads U row j
//     for every j in L row i, and nothing else of earlier rows;
//   - a changing row i already holds the closure of its old positions,
//     so it reads, for an old j of its L row, only the U columns row j
//     gained, and U row j in full only for a j it newly reaches.
//
// Rows run in increasing order, so the U rows a row reads are final.
// Unchanged rows are shared with s (rows are read-only); each changed
// row gets one new array holding both halves.
func (s *SymbolicLU) Grow(add []sparse.Coord) *SymbolicLU {
	n := s.n
	g := &SymbolicLU{n: n, lrows: slices.Clone(s.lrows), urows: slices.Clone(s.urows)}
	// The positions to add, row by row, past the ones s holds.
	var seed [][]int
	first := n
	for _, c := range add {
		i, k := c.Row, c.Col
		if i == k || holds(s, i, k) {
			continue
		}
		if seed == nil {
			seed = make([][]int, n)
		}
		seed[i] = append(seed[i], k)
		first = min(first, i)
	}
	if seed == nil {
		return g
	}
	// gained[j]: the U columns row j gained (nil: none), ascending.
	gained := make([][]int, n)
	mark := make([]int, n)
	for k := range mark {
		mark[k] = -1
	}
	var work, newU []int
	for i := first; i < n; i++ {
		oldL, oldU := s.lrows[i], s.urows[i]
		touched := seed[i] != nil
		for _, j := range oldL {
			if gained[j] != nil {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		mark[i] = i
		for _, k := range oldL {
			mark[k] = i
		}
		for _, k := range oldU {
			mark[k] = i
		}
		work, newU = work[:0], newU[:0]
		reach := func(k int) {
			if mark[k] == i {
				return
			}
			mark[k] = i
			if k < i {
				work = append(work, k)
			} else {
				newU = append(newU, k)
			}
		}
		for _, k := range seed[i] {
			reach(k)
		}
		for _, j := range oldL {
			for _, k := range gained[j] {
				reach(k)
			}
		}
		// Newly reached rows are read whole, in their grown form.
		for h := 0; h < len(work); h++ {
			for _, k := range g.urows[work[h]] {
				reach(k)
			}
		}
		if len(work) == 0 && len(newU) == 0 {
			continue
		}
		slices.Sort(work)
		slices.Sort(newU)
		back := make([]int, 0, len(oldL)+len(work)+len(oldU)+len(newU))
		back = mergeSorted(back, oldL, work)
		nl := len(back)
		back = mergeSorted(back, oldU, newU)
		g.lrows[i] = back[:nl:nl]
		g.urows[i] = back[nl:]
		if len(newU) > 0 {
			gained[i] = slices.Clone(newU)
		}
	}
	return g
}

// holds reports whether s holds the off-diagonal position (i, k).
func holds(s *SymbolicLU, i, k int) bool {
	row := s.urows[i]
	if k < i {
		row = s.lrows[i]
	}
	_, ok := slices.BinarySearch(row, k)
	return ok
}

// mergeSorted appends the union of the ascending, disjoint lists a and b
// to dst, ascending.
func mergeSorted(dst, a, b []int) []int {
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// Grown returns a container whose structure is s, which must hold every
// position of f's (s is f.Structure() grown, or any superset), with f's
// values at f's positions and zeros at the new ones: the same factors,
// since L·D·U does not read a position whose value is zero. f is only
// read.
func (f *StaticFactors) Grown(s *SymbolicLU) *StaticFactors {
	g := NewStaticFactors(s)
	copy(g.D, f.D)
	for j := 0; j < f.n; j++ {
		copyInto(g.LVal[g.LColPtr[j]:g.LColPtr[j+1]], g.LRowIdx[g.LColPtr[j]:g.LColPtr[j+1]],
			f.LVal[f.LColPtr[j]:f.LColPtr[j+1]], f.LRowIdx[f.LColPtr[j]:f.LColPtr[j+1]])
	}
	for i := 0; i < f.n; i++ {
		copyInto(g.UVal[g.URowPtr[i]:g.URowPtr[i+1]], g.UColIdx[g.URowPtr[i]:g.URowPtr[i+1]],
			f.UVal[f.URowPtr[i]:f.URowPtr[i+1]], f.UColIdx[f.URowPtr[i]:f.URowPtr[i+1]])
	}
	g.RefreshMirror()
	return g
}

// copyInto writes vals, at ascending indices idx, into dst at the same
// indices of the ascending dstIdx ⊇ idx.
func copyInto(dst []float64, dstIdx []int, vals []float64, idx []int) {
	p := 0
	for q, k := range idx {
		for dstIdx[p] != k {
			p++
		}
		dst[p] = vals[q]
	}
}
