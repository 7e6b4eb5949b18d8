package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// SyntheticConfig mirrors the five parameters of the paper's EGS
// generator (§6, with the paper's defaults in comments). The paper's
// full scale (V = 50,000) is reachable by setting the fields
// accordingly; tests and default benchmarks run smaller.
type SyntheticConfig struct {
	V      int    // number of vertices                  (paper: 50,000)
	EP     int    // edges in the edge pool              (paper: 450,000)
	D      int    // average vertex degree of snapshot 1 (paper: 5)
	K      int    // ratio ∆E+/∆E−                       (paper: 4)
	DeltaE int    // ∆E = ∆E+ + ∆E− per step             (paper: 500)
	T      int    // number of snapshots                 (paper: 500)
	Seed   uint64 // PRNG seed
}

// DefaultSyntheticConfig returns a laptop-scale configuration with the
// paper's shape: the ratios EP/V, D, K, and DeltaE relative to the
// snapshot edge count match the paper's defaults.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{V: 2000, EP: 18000, D: 5, K: 4, DeltaE: 16, T: 150, Seed: 1}
}

// Validate checks internal consistency: the pool must be able to host
// the initial edge set plus the net growth over T steps.
func (c SyntheticConfig) Validate() error {
	if c.V < 3 || c.EP < c.V || c.D < 1 || c.K < 1 || c.DeltaE < c.K+1 || c.T < 1 {
		return fmt.Errorf("gen: degenerate synthetic config %+v", c)
	}
	init := c.D * c.V / 2
	plus := c.K * c.DeltaE / (c.K + 1)
	minus := c.DeltaE / (c.K + 1)
	need := init + c.T*(plus-minus)
	if need > c.EP {
		return fmt.Errorf("gen: edge pool %d too small for %d needed edges", c.EP, need)
	}
	return nil
}

// Synthetic generates an EGS with the paper's procedure:
//
//  1. Build a scale-free base graph with V vertices and EP edges via
//     the BA model; its edges form the edge pool.
//  2. Snapshot 1 = D·V/2 random pool edges (average degree D).
//  3. Each subsequent snapshot removes ∆E− = ∆E/(K+1) random edges and
//     adds ∆E+ = K·∆E/(K+1) random pool edges not currently present.
//
// Snapshots remain scale-free because uniform sampling of a scale-free
// pool preserves the attachment bias (the paper asserts the same).
func Synthetic(cfg SyntheticConfig) (*graph.EGS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	m := cfg.EP / cfg.V
	if m < 1 {
		m = 1
	}
	base := BarabasiAlbert(rng, cfg.V, m)
	pool := base.Edges()

	// Membership bitmap over pool indices; "in" holds current indices.
	inSet := make([]bool, len(pool))
	var in []int
	initEdges := cfg.D * cfg.V / 2
	if initEdges > len(pool) {
		initEdges = len(pool)
	}
	for _, idx := range rng.Perm(len(pool))[:initEdges] {
		inSet[idx] = true
		in = append(in, idx)
	}

	plus := cfg.K * cfg.DeltaE / (cfg.K + 1)
	minus := cfg.DeltaE / (cfg.K + 1)

	// The builder holds the current edges: each snapshot is one
	// Builder.Graph, sharing every neighbour list the step left alone.
	b := graph.NewBuilder(cfg.V, false)
	for _, idx := range in {
		set(b, pool[idx].From, pool[idx].To, graph.EdgeInsert)
	}

	snaps := make([]*graph.Graph, 0, cfg.T)
	snaps = append(snaps, b.Graph())
	for t := 1; t < cfg.T; t++ {
		// Remove ∆E− random current edges (swap-delete).
		for r := 0; r < minus && len(in) > 0; r++ {
			p := rng.Intn(len(in))
			inSet[in[p]] = false
			set(b, pool[in[p]].From, pool[in[p]].To, graph.EdgeDelete)
			in[p] = in[len(in)-1]
			in = in[:len(in)-1]
		}
		// Add ∆E+ random pool edges not currently present.
		for a := 0; a < plus; a++ {
			for tries := 0; tries < 20*len(pool); tries++ {
				idx := rng.Intn(len(pool))
				if !inSet[idx] {
					inSet[idx] = true
					in = append(in, idx)
					set(b, pool[idx].From, pool[idx].To, graph.EdgeInsert)
					break
				}
			}
		}
		snaps = append(snaps, b.Graph())
	}
	return graph.NewEGS(snaps)
}
