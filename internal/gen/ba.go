// Package gen provides the dataset machinery of the reproduction: the
// paper's synthetic evolving-graph-sequence generator (§6, "Synthetic")
// built on the Barabási–Albert scale-free model, plus simulators that
// stand in for the paper's proprietary traces — WikiSim for the
// Wikipedia hyperlink EGS, DBLPSim for the DBLP co-authorship EGS, and
// PatentSim for the NBER patent-citation case study. Each simulator
// reproduces the structural statistics that drive the algorithms under
// study (sparsity, degree distribution, snapshot-to-snapshot
// similarity); see docs/ALGORITHMS.md ("Datasets") for the substitution
// rationale.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// BarabasiAlbert generates an undirected scale-free graph with n
// vertices and approximately m edges per new vertex (so ≈ n·m edges in
// total) by preferential attachment [Barabási & Albert 1999]. The
// degree distribution follows a power law with exponent γ ≈ 3, the
// value the paper adopts.
func BarabasiAlbert(rng *xrand.Rand, n, m int) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs n > m >= 1 (n=%d, m=%d)", n, m))
	}
	// targets: the "repeated nodes" urn — every edge endpoint appears
	// once, so sampling uniformly from it is degree-proportional.
	var edges []graph.Edge
	urn := make([]int, 0, 2*n*m)
	// Seed clique on the first m+1 vertices.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			edges = append(edges, graph.Edge{From: u, To: v})
			urn = append(urn, u, v)
		}
	}
	chosen := make(map[int]bool, m)
	picks := make([]int, 0, m)
	for u := m + 1; u < n; u++ {
		for k := range chosen {
			delete(chosen, k)
		}
		picks = picks[:0]
		for len(chosen) < m {
			v := urn[rng.Intn(len(urn))]
			if v != u && !chosen[v] {
				chosen[v] = true
				picks = append(picks, v)
			}
		}
		// picks preserves draw order, keeping the generator fully
		// deterministic (map iteration order is not).
		for _, v := range picks {
			edges = append(edges, graph.Edge{From: u, To: v})
			urn = append(urn, u, v)
		}
	}
	return graph.New(n, false, edges)
}

// DegreeHistogram returns counts[d] = number of vertices with degree d
// (out-degree for directed graphs). Used by tests to check the
// power-law tail of generated graphs.
func DegreeHistogram(g *graph.Graph) []int {
	maxD := 0
	for u := 0; u < g.N(); u++ {
		if d := g.OutDegree(u); d > maxD {
			maxD = d
		}
	}
	counts := make([]int, maxD+1)
	for u := 0; u < g.N(); u++ {
		counts[g.OutDegree(u)]++
	}
	return counts
}
