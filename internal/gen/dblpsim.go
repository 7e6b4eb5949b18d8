package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// DBLPConfig parameterizes the co-authorship EGS simulator standing in
// for the paper's DBLP trace (97,931 authors across DB, Vision, and
// Algorithms & Theory; 387,960 → 547,164 edges over the last 1000 daily
// snapshots; similarity 99.86%; matrices symmetric and monotonically
// growing because a snapshot contains all co-authorships up to its
// date).
type DBLPConfig struct {
	N              int     // authors
	T              int     // daily snapshots
	Communities    int     // research areas (paper: 3)
	InitialPapers  int     // papers published before day 1
	PapersPerDay   int     // new papers per day
	MaxCoauthors   int     // authors per paper sampled in [2, MaxCoauthors]
	CrossCommunity float64 // probability an author is drawn outside the paper's community
	Seed           uint64
}

// DefaultDBLPConfig returns a scaled-down configuration preserving the
// trace's shape: symmetric, cumulative growth ≈ +40% over the window.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{
		N: 2500, T: 250, Communities: 3,
		InitialPapers: 2200, PapersPerDay: 4,
		MaxCoauthors: 4, CrossCommunity: 0.05,
		Seed: 11,
	}
}

// DBLPSim generates an undirected co-authorship EGS. Authors belong to
// communities; each paper draws 2..MaxCoauthors authors from one
// community (preferentially by publication count — prolific authors
// keep publishing) and adds a co-authorship clique. Edges accumulate:
// snapshot t contains every edge created up to day t, exactly like the
// paper's "graph of all papers published before that date".
func DBLPSim(cfg DBLPConfig) (*graph.EGS, error) {
	if cfg.N < 10 || cfg.T < 1 || cfg.Communities < 1 || cfg.MaxCoauthors < 2 {
		return nil, fmt.Errorf("gen: bad dblp config %+v", cfg)
	}
	rng := xrand.New(cfg.Seed)
	n := cfg.N

	community := make([]int, n)
	var members [][]int
	members = make([][]int, cfg.Communities)
	for a := 0; a < n; a++ {
		c := rng.Intn(cfg.Communities)
		community[a] = c
		members[c] = append(members[c], a)
	}
	pubs := make([]int, n) // publication counts for preferential choice

	// The builder is the edge set: each snapshot is one Builder.Graph,
	// sharing every neighbour list the day left alone.
	b := graph.NewBuilder(n, false)

	// pickAuthor draws from community c proportionally to pubs+1.
	pickAuthor := func(c int) int {
		if rng.Float64() < cfg.CrossCommunity {
			c = rng.Intn(cfg.Communities)
		}
		ms := members[c]
		total := len(ms)
		for _, a := range ms {
			total += pubs[a]
		}
		t := rng.Intn(total)
		for _, a := range ms {
			t -= pubs[a] + 1
			if t < 0 {
				return a
			}
		}
		return ms[len(ms)-1]
	}

	publish := func() {
		c := rng.Intn(cfg.Communities)
		k := 2 + rng.Intn(cfg.MaxCoauthors-1)
		authors := make(map[int]bool, k)
		for len(authors) < k {
			authors[pickAuthor(c)] = true
		}
		as := make([]int, 0, k)
		for a := range authors {
			as = append(as, a)
			pubs[a]++
		}
		for i := 0; i < len(as); i++ {
			for j := i + 1; j < len(as); j++ {
				set(b, as[i], as[j], graph.EdgeInsert)
			}
		}
	}

	for p := 0; p < cfg.InitialPapers; p++ {
		publish()
	}
	snaps := make([]*graph.Graph, 0, cfg.T)
	snaps = append(snaps, b.Graph())
	for day := 1; day < cfg.T; day++ {
		for p := 0; p < cfg.PapersPerDay; p++ {
			publish()
		}
		snaps = append(snaps, b.Graph())
	}
	return graph.NewEGS(snaps)
}
