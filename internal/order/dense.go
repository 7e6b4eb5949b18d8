package order

import (
	"math"
	"math/bits"
)

// eliminateDense continues an elimination on bitsets: the live vertices
// of g, compacted in ascending vertex order, each hold their active row
// and column (one set in the symmetric case) as m-bit sets over the
// compact indices, diagonal left out. Eliminating pivot a is then
// row_i |= row_a for every i in a's column (and col_j |= col_a for
// every j in its row) with a popcount for the new degree — the fill the
// list phase finds by marking and appending, one machine word at a time.
//
// The pivot rule is eliminate's: the live vertex with the smallest
// (cost, vertex), found by scanning the m costs in index order, which is
// vertex order. The scan stops where the lists would: when the cheapest
// vertex reaches every other one the submatrix is full and the rest is
// left for the caller to emit as the dense tail.
//
// Pivots are appended to pivots and marked in eliminated; urow and lcol
// receive each pivot's active row and column as vertices (ascending, as
// the bits give them). It returns the grown pivot list and the
// structure size the phase added.
func eliminateDense(g *elimGraph, symmetric bool, eliminated []bool, pivots []int, urow, lcol [][]int) ([]int, int) {
	// Compact the live vertices; g.mark is free now and holds the map.
	live := make([]int, 0, len(eliminated)-len(pivots))
	for v, gone := range eliminated {
		if !gone {
			g.mark[v] = len(live)
			live = append(live, v)
		}
	}
	m := len(live)
	words := (m + 63) / 64
	load := func(lists [][]int) (sets []uint64, deg []int) {
		sets, deg = make([]uint64, m*words), make([]int, m)
		for a, v := range live {
			set := sets[a*words : (a+1)*words]
			for _, u := range lists[v] {
				b := g.mark[u]
				set[b>>6] |= 1 << (b & 63)
			}
			deg[a] = len(lists[v])
		}
		return sets, deg
	}
	row, rdeg := load(g.row)
	col, cdeg := row, rdeg
	if !symmetric {
		col, cdeg = load(g.col)
	}
	cost := make([]int, m)
	for a := range cost {
		cost[a] = rdeg[a] * cdeg[a]
	}

	// absorb ORs the pivot's set into each neighbour's, takes the pivot
	// and the neighbour's own diagonal back out, and re-counts.
	absorb := func(sets []uint64, deg []int, a int, into []int) {
		pa := sets[a*words : (a+1)*words]
		for _, i := range into {
			si := sets[i*words : (i+1)*words]
			d := 0
			for w, x := range pa {
				x |= si[w]
				si[w] = x
				d += bits.OnesCount64(x)
			}
			// i is a neighbour, so it held a; it holds itself now if a held i.
			si[a>>6] &^= 1 << (a & 63)
			d--
			if self := uint64(1) << (i & 63); si[i>>6]&self != 0 {
				si[i>>6] &^= self
				d--
			}
			deg[i] = d
		}
	}
	// members reads a set of count bits out twice: as compact indices
	// into idx (reused from pivot to pivot) and as vertices into a list
	// that is kept, carved from a chunked arena.
	var arena []int
	members := func(set []uint64, idx []int, count int) (compact, vertices []int) {
		if cap(arena)-len(arena) < count {
			arena = make([]int, 0, max(count, 1<<14))
		}
		vertices = arena[len(arena) : len(arena)+count : len(arena)+count]
		arena = arena[:len(arena)+count]
		idx = idx[:0]
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				b := w<<6 + bits.TrailingZeros64(x)
				vertices[len(idx)] = live[b]
				idx = append(idx, b)
			}
		}
		return idx, vertices
	}

	size := 0
	rIdx, cIdx := make([]int, 0, m), make([]int, 0, m)
	for left := m; left > 0; left-- {
		a, best := 0, math.MaxInt
		for b, c := range cost {
			if c < best {
				a, best = b, c
			}
		}
		if best == (left-1)*(left-1) {
			break // full: see eliminateWith
		}
		k := len(pivots)
		pivots = append(pivots, live[a])
		eliminated[live[a]] = true
		cost[a] = math.MaxInt

		rIdx, urow[k] = members(row[a*words:(a+1)*words], rIdx, rdeg[a])
		c := rIdx
		if !symmetric {
			cIdx, lcol[k] = members(col[a*words:(a+1)*words], cIdx, cdeg[a])
			c = cIdx
		}
		size += len(rIdx) + len(c) + 1

		absorb(row, rdeg, a, c)
		if !symmetric {
			absorb(col, cdeg, a, rIdx)
			for _, j := range rIdx {
				cost[j] = rdeg[j] * cdeg[j]
			}
		}
		for _, i := range c {
			cost[i] = rdeg[i] * cdeg[i]
		}
	}
	return pivots, size
}
