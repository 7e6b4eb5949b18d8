package gen

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// WikiConfig parameterizes the Wikipedia-like hyperlink EGS simulator.
// The paper's trace had 20,000 pages, 1000 daily snapshots, hyperlinks
// growing 56,181 → 138,072, average out-degree ≈ 7, and successive
// snapshot similarity 99.88%; DefaultWikiConfig reproduces those ratios
// at a laptop-friendly scale.
type WikiConfig struct {
	N            int     // pages
	T            int     // daily snapshots
	InitialEdges int     // hyperlinks on day 1
	FinalEdges   int     // hyperlinks on day T (approximate target)
	ChurnFrac    float64 // removed edges per day as a fraction of added
	EventRate    float64 // probability per day of a "key moment" event
	Seed         uint64
}

// DefaultWikiConfig returns a 1/10-scale Wikipedia-like configuration.
func DefaultWikiConfig() WikiConfig {
	return WikiConfig{
		N: 2000, T: 250,
		InitialEdges: 5600, FinalEdges: 13800,
		ChurnFrac: 0.25, EventRate: 0.05,
		Seed: 7,
	}
}

// WikiSim generates a directed hyperlink EGS: pages acquire links by
// preferential attachment (popular pages attract more in-links, which
// is what produces the power-law in-degree of the web), links grow
// roughly linearly from InitialEdges to FinalEdges with a small churn
// of deletions, and occasional "events" reproduce the key moments of
// the paper's Figure 1/2: a page suddenly gains in-links from
// high-profile pages, or a high-profile page bulk-adds out-links
// (diluting its PageRank contribution).
func WikiSim(cfg WikiConfig) (*graph.EGS, error) {
	if cfg.N < 10 || cfg.T < 1 || cfg.InitialEdges < 1 || cfg.FinalEdges < cfg.InitialEdges {
		return nil, fmt.Errorf("gen: bad wiki config %+v", cfg)
	}
	rng := xrand.New(cfg.Seed)
	n := cfg.N

	type arc struct{ u, v int }
	edges := make(map[arc]bool, cfg.FinalEdges)
	inDeg := make([]int, n)
	outDeg := make([]int, n)
	var list []arc // insertion-ordered for random removal

	addEdge := func(u, v int) bool {
		if u == v {
			return false
		}
		a := arc{u, v}
		if edges[a] {
			return false
		}
		edges[a] = true
		list = append(list, a)
		inDeg[v]++
		outDeg[u]++
		return true
	}
	// prefTarget picks a page proportionally to (in-degree + 1), the
	// classic rich-get-richer rule.
	totalIn := 0
	prefTarget := func() int {
		t := rng.Intn(totalIn + n)
		if t < n {
			return t // the +1 smoothing: uniform component
		}
		t -= n
		for v := 0; v < n; v++ {
			t -= inDeg[v]
			if t < 0 {
				return v
			}
		}
		return n - 1
	}
	// A faster urn would be nicer, but N is small; keep the simple scan
	// honest and move on.

	for len(edges) < cfg.InitialEdges {
		u := rng.Intn(n)
		if addEdge(u, prefTarget()) {
			totalIn++
		}
	}

	dailyNet := float64(cfg.FinalEdges-cfg.InitialEdges) / float64(max(cfg.T-1, 1))
	dailyAdd := int(dailyNet/(1-cfg.ChurnFrac) + 0.5)
	dailyDel := dailyAdd - int(dailyNet+0.5)

	snapshot := func() *graph.Graph {
		es := make([]graph.Edge, 0, len(edges))
		for a := range edges {
			es = append(es, graph.Edge{From: a.u, To: a.v})
		}
		// graph.New sorts and dedups per vertex; map order does not show.
		return graph.New(n, true, es)
	}

	removeRandom := func() {
		for tries := 0; tries < 50 && len(list) > 0; tries++ {
			p := rng.Intn(len(list))
			a := list[p]
			if !edges[a] {
				// Lazily compact tombstones.
				list[p] = list[len(list)-1]
				list = list[:len(list)-1]
				continue
			}
			delete(edges, a)
			inDeg[a.v]--
			outDeg[a.u]--
			totalIn--
			list[p] = list[len(list)-1]
			list = list[:len(list)-1]
			return
		}
	}

	topByInDegree := func(k int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return inDeg[idx[a]] > inDeg[idx[b]] })
		return idx[:k]
	}

	snaps := make([]*graph.Graph, 0, cfg.T)
	snaps = append(snaps, snapshot())
	for day := 1; day < cfg.T; day++ {
		for a := 0; a < dailyAdd; a++ {
			u := rng.Intn(n)
			if addEdge(u, prefTarget()) {
				totalIn++
			}
		}
		for r := 0; r < dailyDel; r++ {
			removeRandom()
		}
		if rng.Float64() < cfg.EventRate {
			switch rng.Intn(2) {
			case 0:
				// Key moment à la snapshot #197: two high-PR pages link
				// to a random page.
				target := rng.Intn(n)
				for _, hub := range topByInDegree(min(5, n)) {
					if addEdge(hub, target) {
						totalIn++
					}
				}
			case 1:
				// Key moment à la snapshot #247: a high-PR page
				// bulk-adds out-links, diluting its contributions.
				hubs := topByInDegree(min(10, n))
				hub := hubs[rng.Intn(len(hubs))]
				for a := 0; a < 30; a++ {
					if addEdge(hub, rng.Intn(n)) {
						totalIn++
					}
				}
			}
		}
		snaps = append(snaps, snapshot())
	}
	return graph.NewEGS(snaps)
}
