package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/measures"
)

// egsSource serves an EGS's snapshots as a GraphSource: index i is
// snapshot i, negative resolves to the final snapshot.
type egsSource struct{ egs *graph.EGS }

func (s egsSource) GraphAt(i int) (*graph.Graph, int, bool) {
	if i < 0 {
		i = s.egs.Len() - 1
	}
	if i >= s.egs.Len() {
		return nil, 0, false
	}
	return s.egs.Snapshots[i], i, true
}

func katzEngine(t *testing.T) (*Engine, *graph.EGS) {
	t.Helper()
	egs, err := gen.WikiSim(gen.WikiConfig{
		N: 80, T: 4, InitialEdges: 220, FinalEdges: 250,
		ChurnFrac: 0.25, EventRate: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: 2, Damping: testDamping})
	eng.AttachGraphs(egsSource{egs})
	return eng, egs
}

// TestKatzThroughEngine holds the katz route's answers bit-for-bit
// against direct measures.Katz calls, across snapshots, for both the
// defaulted and an explicit α — and checks the default and its
// explicit spelling land on the same cache entry.
func TestKatzThroughEngine(t *testing.T) {
	eng, egs := katzEngine(t)
	defer eng.Close()
	ctx := context.Background()

	for i, g := range egs.Snapshots {
		alpha := measures.DefaultKatzAlpha(g)
		want, err := measures.Katz(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Query(ctx, Query{Snapshot: i, Measure: MeasureKatz})
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if resp.Snapshot != i || resp.Damping != alpha {
			t.Fatalf("snapshot %d: got (snap=%d, damping=%v), want (%d, %v)",
				i, resp.Snapshot, resp.Damping, i, alpha)
		}
		if len(resp.Scores) != len(want) {
			t.Fatalf("snapshot %d: %d scores, want %d", i, len(resp.Scores), len(want))
		}
		for v := range want {
			if resp.Scores[v] != want[v] {
				t.Fatalf("snapshot %d node %d: %v != %v", i, v, resp.Scores[v], want[v])
			}
		}
	}

	// Negative snapshot resolves to the latest retained graph.
	last := egs.Len() - 1
	resp, err := eng.Query(ctx, Query{Snapshot: -1, Measure: MeasureKatz})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshot != last {
		t.Fatalf("latest katz resolved to snapshot %d, want %d", resp.Snapshot, last)
	}
	if !resp.CacheHit {
		// Snapshot -1 and the explicit last index share "katz#<last>":
		// the loop above already filled it.
		t.Fatal("latest-katz after explicit-last-katz was not a cache hit")
	}

	// An explicitly spelled default α is the same cache key as the
	// defaulted query.
	alpha := measures.DefaultKatzAlpha(egs.Snapshots[0])
	resp, err = eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz, Damping: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("explicit default-α katz missed the defaulted query's cache entry")
	}

	// A distinct α is a distinct factorization and a distinct entry.
	resp, err = eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz, Damping: alpha / 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("distinct-α katz incorrectly hit the cache")
	}

	st := eng.Stats()
	if st.KatzSolves == 0 {
		t.Fatal("KatzSolves did not count")
	}
	if got := st.Admitted + st.Coalesced + st.Shed; got != st.Queries {
		t.Fatalf("admission invariant violated with katz in the mix: %d+%d+%d != %d",
			st.Admitted, st.Coalesced, st.Shed, st.Queries)
	}
}

// TestKatzErrors covers the route's failure modes: no attached source,
// unknown snapshot, α outside (0,1), and α too large for the graph.
func TestKatzErrors(t *testing.T) {
	ctx := context.Background()

	bare := New(Config{Workers: 1, Damping: testDamping})
	defer bare.Close()
	if _, err := bare.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz}); !errors.Is(err, ErrNoGraphSource) {
		t.Fatalf("detached engine: got %v, want ErrNoGraphSource", err)
	}

	eng, egs := katzEngine(t)
	defer eng.Close()
	if _, err := eng.Query(ctx, Query{Snapshot: egs.Len(), Measure: MeasureKatz}); !errors.Is(err, ErrUnknownSnapshot) {
		t.Fatalf("out-of-range snapshot: got %v, want ErrUnknownSnapshot", err)
	}
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz, Damping: 1.5}); err == nil {
		t.Fatal("α ≥ 1 accepted")
	}
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz, Damping: -0.1}); err == nil {
		t.Fatal("α < 0 accepted")
	}
	// 0.999 is inside (0,1) but violates α·maxInDegree < 1 on any graph
	// with an in-degree ≥ 2 node: the solve itself must fail, and the
	// failure must surface through the flight.
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz, Damping: 0.999}); err == nil {
		t.Fatal("divergent α accepted by the solve")
	}

	// After detaching, the route fails again.
	eng.AttachGraphs(nil)
	if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureKatz}); !errors.Is(err, ErrNoGraphSource) {
		t.Fatalf("after detach: got %v, want ErrNoGraphSource", err)
	}
}

// TestKatzCoalesces fires identical concurrent katz queries at a
// 1-worker engine and requires one factorization to serve them all.
func TestKatzCoalesces(t *testing.T) {
	eng, egs := katzEngine(t)
	defer eng.Close()
	want, err := measures.Katz(egs.Snapshots[1], measures.DefaultKatzAlpha(egs.Snapshots[1]))
	if err != nil {
		t.Fatal(err)
	}

	const G = 16
	var wg sync.WaitGroup
	errs := make([]error, G)
	resps := make([]*Response, G)
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = eng.Query(context.Background(), Query{Snapshot: 1, Measure: MeasureKatz})
		}(i)
	}
	wg.Wait()
	for i := 0; i < G; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for v := range want {
			if resps[i].Scores[v] != want[v] {
				t.Fatalf("goroutine %d node %d: wrong score", i, v)
			}
		}
	}
	st := eng.Stats()
	if st.KatzSolves != 1 {
		t.Fatalf("%d katz factorizations for %d identical queries, want 1", st.KatzSolves, G)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("%d cache misses, want 1", st.CacheMisses)
	}
	if got := st.Admitted + st.Coalesced + st.Shed; got != st.Queries {
		t.Fatalf("admission invariant violated: %d+%d+%d != %d",
			st.Admitted, st.Coalesced, st.Shed, st.Queries)
	}
}

// TestStageTracing drives queries through every pipeline stage and
// checks the Stats exposure: resolve counts every query, admit/batch/
// solve count the cold path, and coalesce counts followers.
func TestStageTracing(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 2})
	defer eng.Close()
	ctx := context.Background()

	const N = 20
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Identical queries: one leads, the rest coalesce or hit.
			if _, err := eng.Query(ctx, Query{Snapshot: 0, Measure: MeasureRWR, Source: 3}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, err := eng.Query(ctx, Query{Snapshot: 1, Measure: MeasurePageRank}); err != nil {
		t.Fatal(err)
	}

	// The worker observes the solve stage after it has released the
	// group's waiters, so the last answer can return a moment earlier.
	waitFor(t, func() bool { return eng.Stats().QueryStages["solve"].Count >= 2 }, "solve-stage observations")
	st := eng.Stats()
	stages := st.QueryStages
	if stages == nil {
		t.Fatal("Stats.QueryStages is nil")
	}
	for _, name := range stageNames {
		if _, ok := stages[name]; !ok {
			t.Fatalf("stage %q missing from Stats.QueryStages", name)
		}
	}
	if got := stages["resolve"].Count; got != st.Queries {
		t.Fatalf("resolve observed %d, want one per query (%d)", got, st.Queries)
	}
	// Two distinct flights reached the workers: N coalesced-or-cached
	// queries share one, the pagerank is the other. Admit and batch see
	// each dequeued task once; solve sees each dispatched group once.
	if stages["admit"].Count < 2 || stages["admit"].Count != stages["batch"].Count {
		t.Fatalf("admit/batch counts inconsistent: admit=%d batch=%d",
			stages["admit"].Count, stages["batch"].Count)
	}
	if got := stages["solve"].Count; got < 2 || got > stages["admit"].Count {
		t.Fatalf("solve observed %d dispatches, want within [2, %d]", got, stages["admit"].Count)
	}
	if stages["coalesce"].Count != st.Coalesced {
		t.Fatalf("coalesce observed %d, want one per coalesced query (%d)",
			stages["coalesce"].Count, st.Coalesced)
	}
	if st.LatencyCount != st.Queries-st.Rejected {
		t.Fatalf("latency observed %d, want one per answered query (%d)",
			st.LatencyCount, st.Queries-st.Rejected)
	}
}
