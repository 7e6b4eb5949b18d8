package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// Entry is a single explicit matrix entry in coordinate form.
type Entry struct {
	Row, Col int
	Val      float64
}

// COO is a mutable coordinate-format builder for sparse matrices.
// Duplicate (row, col) pairs accumulate additively, matching the usual
// finite-element/graph construction convention. Convert to CSR for all
// read access.
type COO struct {
	n       int
	entries []Entry
}

// NewCOO returns an empty n-by-n builder.
func NewCOO(n int) *COO {
	if n < 0 {
		panic("sparse: negative dimension")
	}
	return &COO{n: n}
}

// Reserve makes room for k more entries, so a builder whose size is
// known up front (a deriver walking a graph) appends without regrowing.
func (c *COO) Reserve(k int) { c.entries = slices.Grow(c.entries, k) }

// N returns the matrix dimension.
func (c *COO) N() int { return c.n }

// Len returns the number of explicit (possibly duplicate) entries.
func (c *COO) Len() int { return len(c.entries) }

// Add accumulates v at (i, j). Zero values are kept as explicit entries
// so callers can force a position into the sparsity pattern.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range [0,%d)", i, j, c.n))
	}
	c.entries = append(c.entries, Entry{i, j, v})
}

// ToCSR compacts the builder into an immutable CSR matrix, summing
// duplicates. Entries that sum to exactly zero are retained in the
// pattern (explicit zeros), because evolving-matrix deltas must be able
// to represent "this position exists but currently holds 0".
func (c *COO) ToCSR() *CSR {
	rowCount := make([]int, c.n+1)
	for _, e := range c.entries {
		rowCount[e.Row+1]++
	}
	for i := 0; i < c.n; i++ {
		rowCount[i+1] += rowCount[i]
	}
	colIdx := make([]int, len(c.entries))
	vals := make([]float64, len(c.entries))
	next := make([]int, c.n)
	copy(next, rowCount[:c.n])
	for _, e := range c.entries {
		p := next[e.Row]
		colIdx[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	// Sort each row by column and merge duplicates in place.
	outPtr := make([]int, c.n+1)
	w := 0
	for i := 0; i < c.n; i++ {
		lo, hi := rowCount[i], rowCount[i+1]
		row := colIdx[lo:hi]
		rv := vals[lo:hi]
		// Rows that arrived in column order (builders that emit them so
		// pay nothing here) are left alone; sort.Sort would not move
		// them either, duplicates included.
		if !sort.IntsAreSorted(row) {
			sort.Sort(&pairSorter{row, rv})
		}
		outPtr[i] = w
		for k := 0; k < len(row); {
			j := row[k]
			v := rv[k]
			k++
			for k < len(row) && row[k] == j {
				v += rv[k]
				k++
			}
			colIdx[w] = j
			vals[w] = v
			w++
		}
	}
	outPtr[c.n] = w
	return &CSR{n: c.n, rowPtr: outPtr, colIdx: colIdx[:w:w], vals: vals[:w:w]}
}

// pairSorter sorts a column-index slice and its parallel value slice.
type pairSorter struct {
	idx []int
	val []float64
}

func (p *pairSorter) Len() int           { return len(p.idx) }
func (p *pairSorter) Less(i, j int) bool { return p.idx[i] < p.idx[j] }
func (p *pairSorter) Swap(i, j int) {
	p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
	p.val[i], p.val[j] = p.val[j], p.val[i]
}
