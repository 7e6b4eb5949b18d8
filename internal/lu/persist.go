package lu

import (
	"fmt"
	"slices"
)

// This file is the persistence face of the factor containers: the
// store codec serializes only the primary structure (L by columns, U by
// rows, pivots, and — for the dynamic container — the node pool) and
// the assembly functions here deterministically rebuild every derived
// index (cross views, column mirrors), so a restored container is
// field-for-field identical to the one that was written. Keeping the
// derived indices out of the on-disk format halves snapshot size and
// makes internal consistency a construction invariant instead of a
// trusted input.

// AssembleStatic rebuilds a StaticFactors container from its primary
// structure, taking ownership of the slices. The cross views (L by
// rows, U by columns) are derived exactly as NewStaticFactors derives
// them, so assembling the primary arrays of an existing container
// yields a bit-identical copy. Corrupt input (indices out of range,
// unsorted columns, mismatched lengths) returns an error.
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

	// Cross view of L by row. Scanning columns in ascending order emits
	// each row's columns ascending, matching NewStaticFactors (which
	// scans the per-row symbolic patterns, also ascending).
	lnnz := len(lRowIdx)
	f.LRowPtr = make([]int, n+1)
	for _, i := range lRowIdx {
		f.LRowPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		f.LRowPtr[i+1] += f.LRowPtr[i]
	}
	f.LRowCols = make([]int, lnnz)
	f.LRowPos = make([]int, lnnz)
	next := make([]int, n)
	copy(next, f.LRowPtr[:n])
	for j := 0; j < n; j++ {
		for p := lColPtr[j]; p < lColPtr[j+1]; p++ {
			i := lRowIdx[p]
			w := next[i]
			f.LRowCols[w] = j
			f.LRowPos[w] = p
			next[i]++
		}
	}

	// Cross view of U by column, scanning rows ascending — identical to
	// the construction in NewStaticFactors.
	unnz := len(uColIdx)
	f.UColPtr = make([]int, n+1)
	for _, j := range uColIdx {
		f.UColPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		f.UColPtr[j+1] += f.UColPtr[j]
	}
	f.UColRows = make([]int, unnz)
	f.UColPos = make([]int, unnz)
	next2 := make([]int, n)
	copy(next2, f.UColPtr[:n])
	for i := 0; i < n; i++ {
		for p := uRowPtr[i]; p < uRowPtr[i+1]; p++ {
			j := uColIdx[p]
			w := next2[j]
			f.UColRows[w] = i
			f.UColPos[w] = p
			next2[j]++
		}
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

// AssembleDynamic rebuilds a DynamicFactors container from its node
// pool, list heads, pivots and profiling counters, taking ownership of
// the slices. The column-oriented pattern mirrors are rebuilt by
// walking the lists (both emit ascending indices, matching the
// maintained mirrors), so assembling the fields of an existing
// container yields a bit-identical copy. Corrupt input — dangling node
// references, unsorted or out-of-range lists, cycles — returns an
// error.
func AssembleDynamic(n int, nodes []ListNode, lHead, uHead []int, d []float64, inserts, scanSteps int) (*DynamicFactors, error) {
	if n < 0 {
		return nil, fmt.Errorf("lu: negative dimension %d", n)
	}
	if len(lHead) != n || len(uHead) != n || len(d) != n {
		return nil, fmt.Errorf("lu: head/pivot lengths (%d,%d,%d) for dimension %d", len(lHead), len(uHead), len(d), n)
	}
	dyn := &DynamicFactors{
		n:     n,
		Nodes: nodes,
		LHead: lHead, UHead: uHead,
		D:       d,
		Inserts: inserts, ScanSteps: scanSteps,
		lCols: make([][]int, n),
		uCols: make([][]int, n),
	}
	// Every node belongs to exactly one list, so the total walk is
	// bounded by the pool size; exceeding it means a cycle or shared
	// tail and the input is rejected.
	budget := len(nodes)
	walk := func(head int, strictLower bool, major int) ([]int, error) {
		var out []int
		prev := -1
		for cur := head; cur != -1; cur = nodes[cur].Next {
			if cur < 0 || cur >= len(nodes) {
				return nil, fmt.Errorf("lu: node reference %d outside pool of %d", cur, len(nodes))
			}
			if budget--; budget < 0 {
				return nil, fmt.Errorf("lu: node lists reference more cells than the pool holds")
			}
			idx := nodes[cur].Idx
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("lu: list index %d outside [0,%d)", idx, n)
			}
			if strictLower && idx <= major {
				return nil, fmt.Errorf("lu: L column %d holds non-lower row %d", major, idx)
			}
			if !strictLower && idx <= major {
				return nil, fmt.Errorf("lu: U row %d holds non-upper column %d", major, idx)
			}
			if idx <= prev {
				return nil, fmt.Errorf("lu: list of %d not strictly ascending", major)
			}
			prev = idx
			out = append(out, idx)
		}
		return out, nil
	}
	for j := 0; j < n; j++ {
		rows, err := walk(lHead[j], true, j)
		if err != nil {
			return nil, err
		}
		dyn.lCols[j] = rows
		dyn.lnnz += len(rows)
	}
	// The U mirrors are column-oriented: walking the row lists in
	// ascending row order appends each column's rows ascending, exactly
	// like NewDynamicFactors' construction.
	for i := 0; i < n; i++ {
		cols, err := walk(uHead[i], false, i)
		if err != nil {
			return nil, err
		}
		for _, j := range cols {
			dyn.uCols[j] = append(dyn.uCols[j], i)
		}
		dyn.unnz += len(cols)
	}
	dyn.RefreshMirror()
	return dyn, nil
}
