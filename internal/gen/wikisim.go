package gen

import (
	"fmt"
	"math/bits"
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

// WikiSim generates a directed hyperlink EGS: the WikiEvents process
// replayed through a Builder, one snapshot per day. Pages acquire links
// by preferential attachment (popular pages attract more in-links, which
// is what produces the power-law in-degree of the web), links grow
// roughly linearly from InitialEdges to FinalEdges with a small churn
// of deletions, and occasional "events" reproduce the key moments of
// the paper's Figure 1/2: a page suddenly gains in-links from
// high-profile pages, or a high-profile page bulk-adds out-links
// (diluting its PageRank contribution).
func WikiSim(cfg WikiConfig) (*graph.EGS, error) {
	first, batches, err := WikiEvents(cfg)
	if err != nil {
		return nil, err
	}
	// Each snapshot is one Builder.Graph, sharing every neighbour list
	// the day left alone.
	b := graph.NewBuilderFrom(first)
	snaps := make([]*graph.Graph, 0, cfg.T)
	snaps = append(snaps, first)
	for _, batch := range batches {
		if _, err := b.ApplyBatch(batch); err != nil {
			return nil, err
		}
		snaps = append(snaps, b.Graph())
	}
	return graph.NewEGS(snaps)
}

// WikiEvents runs WikiSim's process and returns it as an event stream:
// the day-1 graph and, for each later day, the edge events that day
// applied, in the order it applied them (T-1 batches). Every event
// changes the edge set where it stands, so replaying the batches from
// first through a Builder passes through exactly WikiSim's snapshots.
func WikiEvents(cfg WikiConfig) (*graph.Graph, [][]graph.EdgeEvent, error) {
	if cfg.N < 10 || cfg.T < 1 || cfg.InitialEdges < 1 || cfg.FinalEdges < cfg.InitialEdges {
		return nil, nil, fmt.Errorf("gen: bad wiki config %+v", cfg)
	}
	rng := xrand.New(cfg.Seed)
	n := cfg.N

	type arc struct{ u, v int }
	// The builder is the edge set; day is the batch of events the current
	// day has applied to it.
	b := graph.NewBuilder(n, true)
	var day []graph.EdgeEvent
	apply := func(u, v int, op graph.EdgeOp) {
		set(b, u, v, op)
		day = append(day, graph.EdgeEvent{From: u, To: v, Op: op})
	}
	inDeg := make([]int, n)
	pref := newUrn(n) // inDeg again, as prefix sums
	var list []arc    // insertion-ordered for random removal

	addEdge := func(u, v int) bool {
		if u == v || b.Has(u, v) {
			return false
		}
		apply(u, v, graph.EdgeInsert)
		list = append(list, arc{u, v})
		inDeg[v]++
		pref.add(v, 1)
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
		return pref.find(t - n) // totalIn is the sum of inDeg
	}

	for b.NumEdges() < cfg.InitialEdges {
		u := rng.Intn(n)
		if addEdge(u, prefTarget()) {
			totalIn++
		}
	}

	dailyNet := float64(cfg.FinalEdges-cfg.InitialEdges) / float64(max(cfg.T-1, 1))
	dailyAdd := int(dailyNet/(1-cfg.ChurnFrac) + 0.5)
	dailyDel := dailyAdd - int(dailyNet+0.5)

	removeRandom := func() {
		for tries := 0; tries < 50 && len(list) > 0; tries++ {
			p := rng.Intn(len(list))
			a := list[p]
			if !b.Has(a.u, a.v) {
				// Lazily compact tombstones.
				list[p] = list[len(list)-1]
				list = list[:len(list)-1]
				continue
			}
			apply(a.u, a.v, graph.EdgeDelete)
			inDeg[a.v]--
			pref.add(a.v, -1)
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

	first := b.Graph() // day 1's events are in it, not in a batch
	batches := make([][]graph.EdgeEvent, 0, cfg.T-1)
	for range cfg.T - 1 {
		day = nil
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
		batches = append(batches, day)
	}
	return first, batches, nil
}

// urn holds non-negative weights w[0..n) as a Fenwick tree, so that
// changing a weight and finding the item a uniform draw from [0, Σw)
// lands on both take O(log n).
type urn []int // urn[k], 1-based: the sum of w over (k − k&−k, k]

func newUrn(n int) urn { return make(urn, n+1) }

// add changes w[v] by d.
func (u urn) add(v, d int) {
	for k := v + 1; k < len(u); k += k & -k {
		u[k] += d
	}
}

// find returns the smallest v with w[0] + … + w[v] > t, for
// 0 ≤ t < Σw: the item that a scan subtracting w[0], w[1], … from t
// would stop at.
func (u urn) find(t int) int {
	k := 0
	for step := 1 << (bits.Len(uint(len(u)-1)) - 1); step > 0; step >>= 1 {
		if next := k + step; next < len(u) && u[next] <= t {
			k = next
			t -= u[next]
		}
	}
	return k
}

// set applies one edge event to a generator's builder. The generators
// draw endpoints from [0, n) and use only insert and delete, which the
// builder always accepts.
func set(b *graph.Builder, u, v int, op graph.EdgeOp) {
	if _, err := b.Apply(graph.EdgeEvent{From: u, To: v, Op: op}); err != nil {
		panic(err)
	}
}
