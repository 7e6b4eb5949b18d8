package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// liveStreamAlg builds a small random event stream and a streaming
// engine of the given strategy over it (not yet advanced past
// version 0).
func liveStreamAlg(t *testing.T, alg core.Algorithm, nBatches int, onPublish func(*lu.Solver, bennett.VersionRecord)) (*core.Stream, [][]graph.EdgeEvent) {
	t.Helper()
	rng := xrand.New(77)
	n := 120
	es := make([]graph.Edge, 0, 4*n)
	for k := 0; k < 4*n; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	initial := graph.New(n, true, es)
	batches := make([][]graph.EdgeEvent, nBatches)
	for b := range batches {
		evs := make([]graph.EdgeEvent, 10)
		for k := range evs {
			op := graph.EdgeInsert
			if rng.Intn(10) < 3 {
				op = graph.EdgeDelete
			}
			evs[k] = graph.EdgeEvent{From: rng.Intn(n), To: rng.Intn(n), Op: op}
		}
		batches[b] = evs
	}
	s, err := core.NewStream(core.StreamConfig{
		Algorithm: alg, Alpha: 0.9,
		Initial: initial, Derive: graph.RWRMatrix(testDamping),
		OnPublish: onPublish,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, batches
}

// liveStream is liveStreamAlg with the CLUDE default most tests use.
func liveStream(t *testing.T, onPublish func(*lu.Solver, bennett.VersionRecord)) (*core.Stream, [][]graph.EdgeEvent) {
	t.Helper()
	return liveStreamAlg(t, core.CLUDE, 24, onPublish)
}

// TestLiveServingDuringIngestion is the streaming serve stress test,
// run for every maintenance strategy: query workers hammer the latest
// state while batches commit concurrently. Every answer must be
// internally consistent (computed from exactly one published version),
// and after ingestion quiesces the engine's answers must be
// bit-identical to a cold solve of the final factors. Run under -race
// this also proves the publish-lock protocol.
func TestLiveServingDuringIngestion(t *testing.T) {
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		t.Run(string(alg), func(t *testing.T) { liveServingStress(t, alg) })
	}
}

func liveServingStress(t *testing.T, alg core.Algorithm) {
	stream, batches := liveStreamAlg(t, alg, 12, nil)
	defer stream.Close()
	eng := New(Config{Workers: 4, CacheSize: 256, Damping: testDamping})
	defer eng.Close()
	eng.AttachLive(stream)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served atomic.Int64
	n := stream.N()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := Query{Snapshot: -1, Measure: MeasureRWR, Source: rng.Intn(n)}
				if rng.Intn(3) == 0 {
					q = Query{Snapshot: -1, Measure: MeasureTopK, Source: rng.Intn(n), K: 5}
				}
				resp, err := eng.Query(context.Background(), q)
				if err != nil {
					t.Errorf("live query: %v", err)
					return
				}
				if !resp.Live {
					t.Error("latest-state query not served live")
					return
				}
				served.Add(1)
			}
		}(uint64(100 + g))
	}
	for _, evs := range batches {
		if _, err := stream.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	// A fast ingest can finish before the clients are scheduled at all
	// (GOMAXPROCS=1); let them land a few queries before stopping so the
	// live path is exercised on every run.
	for w := 0; w < 2000 && served.Load() < 4; w++ {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no live queries served")
	}

	// Quiesced: answers must equal cold solves of the final factors.
	var final *lu.Solver
	if !stream.View(func(_ uint64, s *lu.Solver) { final = s.Clone() }) {
		t.Fatal("no final state")
	}
	rng := xrand.New(9)
	for trial := 0; trial < 20; trial++ {
		q := Query{Snapshot: -1, Measure: MeasureRWR, Source: rng.Intn(n)}
		resp, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Version != stream.Version() {
			t.Fatalf("quiesced answer at version %d, want %d", resp.Version, stream.Version())
		}
		_, cold := coldAnswer(q, final)
		for j := range cold {
			if resp.Scores[j] != cold[j] {
				t.Fatalf("live answer differs from cold solve at %d: %v vs %v", j, resp.Scores[j], cold[j])
			}
		}
	}

	st := eng.Stats()
	if !st.LiveAttached || st.LiveQueries == 0 {
		t.Fatalf("live stats not recorded: %+v", st)
	}
	if st.LiveVersion != stream.Version() {
		t.Fatalf("stats live version %d, want %d", st.LiveVersion, stream.Version())
	}
}

// TestLiveCacheInvalidatesOnPublish pins the version-keyed cache
// behavior: a repeated query within one version hits the cache, and a
// committed batch makes the next answer a fresh solve reflecting the
// new factors.
func TestLiveCacheInvalidatesOnPublish(t *testing.T) {
	stream, batches := liveStream(t, nil)
	defer stream.Close()
	eng := New(Config{Workers: 1, CacheSize: 64, Damping: testDamping})
	defer eng.Close()
	eng.AttachLive(stream)

	q := Query{Snapshot: -1, Measure: MeasureRWR, Source: 3}
	first, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || !again.CacheHit {
		t.Fatalf("cache behavior within a version: first hit=%v second hit=%v", first.CacheHit, again.CacheHit)
	}
	if _, err := stream.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("answer for a new version served from the old version's cache")
	}
	if after.Version != 1 || again.Version != 0 {
		t.Fatalf("versions %d then %d, want 0 then 1", again.Version, after.Version)
	}
}

// TestLiveCheckpointsFeedPinnedStore wires the one retention pattern: the
// publish hook pins a base clone every k versions and records the deltas
// between, so snapshot-addressed queries serve history — a base as a
// plain pinned snapshot, a version between two bases by replay — while
// the live path serves the head.
func TestLiveCheckpointsFeedPinnedStore(t *testing.T) {
	const every = 6
	eng := New(Config{Workers: 2, CacheSize: 64, Damping: testDamping, HistoryBase: every})
	defer eng.Close()
	// INC keeps one container for the whole stream, so the versions
	// between bases are Bennett deltas (CLUDE would rebuild on this
	// stream's fresh edges and pin every version as a structural base).
	stream, batches := liveStreamAlg(t, core.INC, 24, eng.HistoryHook())
	defer stream.Close()
	eng.AttachLive(stream)

	for _, evs := range batches {
		if _, err := stream.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	pinned := make(map[int]bool)
	for _, v := range eng.Snapshots() {
		pinned[v] = true
	}
	between := -1
	for v := 0; v <= int(stream.Version()); v++ {
		if v%every == 0 && !pinned[v] {
			t.Fatalf("version %d is not pinned as a base (%v)", v, eng.Snapshots())
		}
		if !pinned[v] && v < int(stream.Version()) {
			between = v
		}
	}
	// A base answers as a plain pinned snapshot.
	resp, err := eng.Query(context.Background(), Query{Snapshot: every, Measure: MeasureRWR, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Live || resp.Snapshot != every {
		t.Fatalf("base query answered live=%v snapshot=%d", resp.Live, resp.Snapshot)
	}
	if st := eng.Stats(); st.HistoryMaterializations != 0 {
		t.Fatalf("a base was answered by %d materializations, want none", st.HistoryMaterializations)
	}
	// The head answers live even though bases exist.
	head, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !head.Live || head.Version != stream.Version() {
		t.Fatalf("head query live=%v version=%d, want live at %d", head.Live, head.Version, stream.Version())
	}
	// A version between two bases answers too, by delta replay.
	if between < 0 {
		t.Fatalf("every version is a base (%v): nothing exercises the replay", eng.Snapshots())
	}
	mid, err := eng.Query(context.Background(), Query{Snapshot: between, Measure: MeasureRWR, Source: 1})
	if err != nil {
		t.Fatalf("version %d, between two bases: %v", between, err)
	}
	if mid.Live || mid.Snapshot != between {
		t.Fatalf("version %d answered live=%v snapshot=%d", between, mid.Live, mid.Snapshot)
	}
	if st := eng.Stats(); st.HistoryMaterializations != 1 {
		t.Fatalf("%d materializations after one in-between query, want 1", st.HistoryMaterializations)
	}
}

// TestReattachInvalidatesLiveCache pins the attach-generation stamp:
// after swapping in a different live source whose version counter
// starts over at the same value, a repeated query must not be served
// from the previous source's cache.
func TestReattachInvalidatesLiveCache(t *testing.T) {
	a, _ := liveStream(t, nil)
	defer a.Close()
	b, _ := liveStream(t, nil)
	defer b.Close()
	eng := New(Config{Workers: 1, CacheSize: 64, Damping: testDamping})
	defer eng.Close()

	q := Query{Snapshot: -1, Measure: MeasureRWR, Source: 3}
	eng.AttachLive(a)
	if _, err := eng.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("repeat query on one source did not hit the cache")
	}
	// b is at the same version (0) as a's cached answer.
	eng.AttachLive(b)
	swapped, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if swapped.CacheHit {
		t.Fatal("swapped-in source served the previous source's cached answer")
	}
	if swapped.Version != 0 || !swapped.Live {
		t.Fatalf("swapped answer live=%v version=%d, want live at 0", swapped.Live, swapped.Version)
	}
}

// TestDetachLiveRestoresPinnedServing verifies AttachLive(nil) and the
// fallback when a live source exists but the engine has pinned state.
func TestDetachLiveRestoresPinnedServing(t *testing.T) {
	stream, _ := liveStream(t, nil)
	defer stream.Close()
	eng := New(Config{Workers: 1, CacheSize: 16, Damping: testDamping})
	defer eng.Close()
	eng.AttachLive(stream)
	var pinned *lu.Solver
	stream.View(func(_ uint64, s *lu.Solver) { pinned = s.Clone() })
	eng.Pin(0, pinned)

	resp, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 2})
	if err != nil || !resp.Live {
		t.Fatalf("attached engine served live=%v err=%v", resp != nil && resp.Live, err)
	}
	eng.AttachLive(nil)
	resp, err = eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Live {
		t.Fatal("detached engine still serving live")
	}
	if st := eng.Stats(); st.LiveAttached {
		t.Fatal("stats report a detached source")
	}
}
