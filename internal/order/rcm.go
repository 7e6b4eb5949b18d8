package order

import (
	"sort"

	"repro/internal/sparse"
)

// RCM computes the reverse Cuthill–McKee ordering of a pattern's
// symmetrized adjacency structure. RCM minimizes bandwidth rather than
// fill, which makes it a useful *ablation* ordering in this repository:
// comparing Markowitz against RCM and Natural quantifies how much of
// the pipeline's win comes specifically from fill-reducing (as opposed
// to merely locality-improving) orderings. It is also the cheapest of
// the three non-trivial strategies — a plain BFS.
func RCM(p *sparse.Pattern) Result {
	n := p.N()
	// Symmetrized adjacency (off-diagonal).
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, j := range p.Row(i) {
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	deg := make([]int, n)
	for v := range adj {
		sort.Ints(adj[v])
		// Deduplicate after symmetrization.
		w := 0
		prev := -1
		for _, u := range adj[v] {
			if u != prev {
				adj[v][w] = u
				w++
				prev = u
			}
		}
		adj[v] = adj[v][:w]
		deg[v] = w
	}

	visited := make([]bool, n)
	orderOut := make([]int, 0, n)
	// Process components from lowest-degree unvisited roots, the
	// classic pseudo-peripheral heuristic simplified.
	roots := make([]int, n)
	for i := range roots {
		roots[i] = i
	}
	sort.Slice(roots, func(a, b int) bool {
		if deg[roots[a]] != deg[roots[b]] {
			return deg[roots[a]] < deg[roots[b]]
		}
		return roots[a] < roots[b]
	})
	queue := make([]int, 0, n)
	for _, r := range roots {
		if visited[r] {
			continue
		}
		visited[r] = true
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			orderOut = append(orderOut, v)
			// Enqueue unvisited neighbours by increasing degree.
			start := len(queue)
			for _, u := range adj[v] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
			newly := queue[start:]
			sort.Slice(newly, func(a, b int) bool {
				if deg[newly[a]] != deg[newly[b]] {
					return deg[newly[a]] < deg[newly[b]]
				}
				return newly[a] < newly[b]
			})
		}
	}
	// Reverse (the "R" in RCM).
	for i, j := 0, len(orderOut)-1; i < j; i, j = i+1, j-1 {
		orderOut[i], orderOut[j] = orderOut[j], orderOut[i]
	}
	return given(p, sparse.SymmetricOrdering(orderOut))
}
