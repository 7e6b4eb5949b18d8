package core

import (
	"fmt"
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
// pass inserts the pool sixteen edges to a batch, as a server's feed
// seeds it, and deletes it again, so the cluster union holds every pool
// edge and each later batch is one Bennett update of the same static
// factors, never a rebuild. The warm-up's growth batches take the
// kept-order path where the β rule allows, so the chain runs on factors
// that were moved into grown containers and Bennett-updated there, not
// only on a fresh decomposition. After the chain the factors must
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
	for k := 0; k < len(pool); k += 16 {
		flip(pool[k : k+16])
	}
	flip(pool)
	warm := s.Stats()
	if warm.KeptGrowths == 0 {
		t.Fatalf("the warm-up took no kept-order growth: %+v", warm)
	}

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
	t.Logf("‖A·x − e_u‖∞ after %d Bennett terms (warm-up: %d kept growths, %d rebuilds): %.3g",
		st.Bennett.Rank1Updates-warm.Bennett.Rank1Updates, warm.KeptGrowths, warm.StructRebuilds, worst)
	if worst > 1e-13 {
		t.Errorf("residual %g after the chain, want ≤ 1e-13", worst)
	}
}

// TestStreamScaledResidualIngestFeed holds every kind of batch an
// ingest feed is made of to a normwise backward error: on the default
// Wiki graph's first snapshot, a 256-edge pool is seeded sixteen fresh
// edges to a batch, then pool edges flap sixteen to a batch with every
// sixteenth batch inserting sixteen fresh edges. After each growth batch
// and every eighth batch, for two random right-hand sides b,
// ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) ≤ 1e-13, a bound fixed before the
// test first ran (rounding is ~1e-16). The feed must take the
// kept-order path and the rebuild path both.
func TestStreamScaledResidualIngestFeed(t *testing.T) {
	cfg := gen.DefaultWikiConfig()
	cfg.T = 1
	first, _, err := gen.WikiEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(StreamConfig{Alpha: 0.95, Initial: first, Derive: graph.RWRMatrix(0.85)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := xrand.New(29)
	n := first.N()
	held := map[graph.Edge]bool{}
	freshEdges := func(k int) []graph.EdgeEvent {
		var evs []graph.EdgeEvent
		for len(evs) < k {
			e := graph.Edge{From: rng.Intn(n), To: rng.Intn(n)}
			if e.From != e.To && !first.HasEdge(e.From, e.To) && !held[e] {
				held[e] = true
				evs = append(evs, graph.EdgeEvent{From: e.From, To: e.To, Op: graph.EdgeInsert})
			}
		}
		return evs
	}
	worst := 0.0
	check := func(at string) {
		t.Helper()
		a := s.current()
		s.View(func(_ uint64, sv *lu.Solver) {
			for k := 0; k < 2; k++ {
				b := make([]float64, n)
				for i := range b {
					b[i] = rng.Float64()*2 - 1
				}
				r := scaledResidual(a, sv.Solve(b), b)
				worst = max(worst, r)
				if r > 1e-13 {
					t.Fatalf("%s: scaled residual %g, want ≤ 1e-13", at, r)
				}
			}
		})
	}
	apply := func(evs []graph.EdgeEvent) {
		t.Helper()
		if _, err := s.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	var pool []graph.EdgeEvent
	for k := 0; k < 16; k++ {
		batch := freshEdges(16)
		pool = append(pool, batch...)
		apply(batch)
		check(fmt.Sprint("seed batch ", k))
	}
	for b := 0; b < 96; b++ {
		if b%16 == 15 {
			apply(freshEdges(16))
			check(fmt.Sprint("growth batch ", b))
			continue
		}
		// One batch deletes sixteen pool edges, the next puts them back.
		if b%2 == 0 {
			for k, p := range rng.Perm(len(pool))[:16] {
				pool[p], pool[k] = pool[k], pool[p]
			}
		}
		flap := make([]graph.EdgeEvent, 16)
		for k, ev := range pool[:16] {
			flap[k] = ev
			if b%2 == 0 {
				flap[k].Op = graph.EdgeDelete
			}
		}
		apply(flap)
		if b%8 == 7 {
			check(fmt.Sprint("toggle batch ", b))
		}
	}
	st := s.Stats()
	t.Logf("worst scaled residual %.3g over %d kept growths, %d rebuilds, %d clusters; fill %d, reference %d",
		worst, st.KeptGrowths, st.StructRebuilds, st.Clusters, st.Fill, st.RefFill)
	if st.KeptGrowths == 0 || st.StructRebuilds == 0 {
		t.Fatalf("the feed took %d kept growths and %d rebuilds; it must take both", st.KeptGrowths, st.StructRebuilds)
	}
}
