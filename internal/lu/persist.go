package lu

import (
	"fmt"
	"slices"
)

// This file is the persistence face of the static factor container: the
// store codec serializes only the primary structure (L by columns, U by
// rows, pivots), and AssembleStatic rebuilds a container from exactly
// those arrays after checking them. Nothing derived is on disk: the
// cross views are built on demand by whoever refactorizes or runs the
// symmetric Bennett walk on the container (EnsureCrossViews), so a
// restored checkpoint or a reloaded spill pays no O(nnz) pass for views
// a solve never reads. Keeping them out of the format halves snapshot
// size and makes internal consistency a construction invariant instead
// of a trusted input.

// AssembleStatic rebuilds a StaticFactors container from its primary
// structure, taking ownership of the slices. Like a Clone it holds no
// cross views, so assembling the primary arrays of an existing container
// yields a copy equal to its Clone field for field. Corrupt input
// (indices out of range, unsorted columns, mismatched lengths) returns
// an error.
func AssembleStatic(n int, lColPtr, lRowIdx []int, lVal []float64, uRowPtr, uColIdx []int, uVal, d []float64) (*StaticFactors, error) {
	if n < 0 {
		return nil, fmt.Errorf("lu: negative dimension %d", n)
	}
	if err := checkTriangle("L", n, lColPtr, lRowIdx, len(lVal), true); err != nil {
		return nil, err
	}
	if err := checkTriangle("U", n, uRowPtr, uColIdx, len(uVal), false); err != nil {
		return nil, err
	}
	if len(d) != n {
		return nil, fmt.Errorf("lu: %d pivots for dimension %d", len(d), n)
	}
	f := &StaticFactors{
		n:       n,
		LColPtr: lColPtr, LRowIdx: lRowIdx, LVal: lVal,
		URowPtr: uRowPtr, UColIdx: uColIdx, UVal: uVal,
		D: d,
	}
	f.symStruct = slices.Equal(lColPtr, uRowPtr) && slices.Equal(lRowIdx, uColIdx)
	f.RefreshMirror()
	return f, nil
}

// checkTriangle validates one strictly triangular compressed structure:
// ptr is the n+1 list pointer array, idx the minor indices (sorted
// strictly ascending per list, in range, strictly below/above the
// diagonal for lower=true/false).
func checkTriangle(name string, n int, ptr, idx []int, vals int, lower bool) error {
	if len(ptr) != n+1 {
		return fmt.Errorf("lu: %s pointer length %d for dimension %d", name, len(ptr), n)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("lu: %s pointers must start at 0", name)
	}
	for k := 0; k < n; k++ {
		if ptr[k+1] < ptr[k] {
			return fmt.Errorf("lu: %s pointers not monotone at %d", name, k)
		}
	}
	if ptr[n] != len(idx) {
		return fmt.Errorf("lu: %s pointer end %d does not match %d indices", name, ptr[n], len(idx))
	}
	if vals != len(idx) {
		return fmt.Errorf("lu: %s has %d values for %d indices", name, vals, len(idx))
	}
	for k := 0; k < n; k++ {
		prev := -1
		for _, i := range idx[ptr[k]:ptr[k+1]] {
			if i < 0 || i >= n {
				return fmt.Errorf("lu: %s index %d of list %d outside [0,%d)", name, i, k, n)
			}
			if lower && i <= k {
				return fmt.Errorf("lu: %s entry (%d,%d) not strictly lower", name, i, k)
			}
			if !lower && i <= k {
				return fmt.Errorf("lu: %s entry (%d,%d) not strictly upper", name, k, i)
			}
			if i <= prev {
				return fmt.Errorf("lu: %s list %d not strictly ascending", name, k)
			}
			prev = i
		}
	}
	return nil
}
