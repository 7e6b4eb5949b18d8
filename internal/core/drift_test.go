package core

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// TestStreamBennettDrift holds a long Bennett chain to the mathematics.
// A CLUDE stream on the default Wiki graph's first snapshot flips random
// edges of a 256-edge pool, sixteen to a batch, 2 000 times. A warm-up
// pass inserts the pool and deletes it again, so the cluster union holds
// every pool edge and each later batch is one Bennett update of the same
// static factors, never a rebuild. After the chain the factors must
// still solve the current matrix A: ‖A·x − e_u‖∞ ≤ 1e-13 for four
// sources u. (When the recurrence truncated vector entries below 1e-10,
// this residual grew to 9.2e-12 over the chain; exact propagation keeps
// it at rounding, ~1.3e-15.)
func TestStreamBennettDrift(t *testing.T) {
	cfg := gen.DefaultWikiConfig()
	cfg.T = 1
	egs, err := gen.WikiSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g0 := egs.Snapshots[0]
	s, err := NewStream(StreamConfig{Alpha: 0.95, Initial: g0, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := xrand.New(3)
	type edge struct{ from, to int }
	var pool []edge
	for seen := map[edge]bool{}; len(pool) < 256; {
		e := edge{rng.Intn(g0.N()), rng.Intn(g0.N())}
		if e.from != e.to && !g0.HasEdge(e.from, e.to) && !seen[e] {
			seen[e] = true
			pool = append(pool, e)
		}
	}
	in := map[edge]bool{} // the pool edges the graph holds
	flip := func(picks []edge) {
		t.Helper()
		batch := make([]graph.EdgeEvent, len(picks))
		for k, e := range picks {
			op := graph.EdgeInsert
			if in[e] {
				op = graph.EdgeDelete
			}
			in[e] = !in[e]
			batch[k] = graph.EdgeEvent{From: e.from, To: e.to, Op: op}
		}
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	flip(pool)
	flip(pool)
	warm := s.Stats()

	var picks []edge
	for b := 0; b < 2000; b++ {
		picks = picks[:0]
		for k := 0; k < 16; k++ {
			if e := pool[rng.Intn(len(pool))]; !slices.Contains(picks, e) {
				picks = append(picks, e) // an edge drawn twice flips once
			}
		}
		flip(picks)
	}
	st := s.Stats()
	if st.StructRebuilds != warm.StructRebuilds || st.Refactorizations != warm.Refactorizations || st.Clusters != warm.Clusters {
		t.Fatalf("the chain left its structure: %d rebuilds, %d refactorizations, %d clusters after warm-up; %d, %d, %d after the chain",
			warm.StructRebuilds, warm.Refactorizations, warm.Clusters, st.StructRebuilds, st.Refactorizations, st.Clusters)
	}
	if st.Bennett.Rank1Updates == warm.Bennett.Rank1Updates {
		t.Fatal("the chain applied no Bennett update")
	}

	a := s.current()
	worst := 0.0
	s.View(func(_ uint64, sv *lu.Solver) {
		for _, u := range []int{0, a.N() / 3, 2 * a.N() / 3, a.N() - 1} {
			e := make([]float64, a.N())
			e[u] = 1
			worst = max(worst, sparse.NormInfDiff(a.MulVec(sv.Solve(e)), e))
		}
	})
	t.Logf("‖A·x − e_u‖∞ after %d Bennett terms: %.3g", st.Bennett.Rank1Updates-warm.Bennett.Rank1Updates, worst)
	if worst > 1e-13 {
		t.Errorf("residual %g after the chain, want ≤ 1e-13", worst)
	}
}
