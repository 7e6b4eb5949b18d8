package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/measures"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// historyStream drives a random event stream of the given strategy
// into eng's history hook, retaining an independent reference clone of
// every published version. It returns the final version (all batches
// applied, stream closed).
func historyStream(t *testing.T, alg core.Algorithm, eng *Engine, nBatches int) (map[uint64]*lu.Solver, uint64) {
	t.Helper()
	rng := xrand.New(99)
	n := 90
	es := make([]graph.Edge, 0, 4*n)
	for k := 0; k < 4*n; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	ref := make(map[uint64]*lu.Solver)
	record := eng.HistoryHook()
	s, err := core.NewStream(core.StreamConfig{
		Algorithm: alg, Alpha: 0.9,
		Initial: graph.New(n, true, es),
		Derive:  graph.RWRMatrix(testDamping),
		OnPublish: func(sv *lu.Solver, rec bennett.VersionRecord) {
			record(sv, rec)
			ref[rec.Version] = sv.Clone()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Events toggle edges from the initial pool, so the pattern stays
	// inside the cluster union: CLUDE (and CINC) take the Bennett path
	// and publish replayable non-structural versions, which is what the
	// history layer exists to compress.
	for b := 0; b < nBatches; b++ {
		evs := make([]graph.EdgeEvent, 8)
		for k := range evs {
			e := es[rng.Intn(len(es))]
			op := graph.EdgeDelete
			if rng.Intn(2) == 0 {
				op = graph.EdgeInsert
			}
			evs[k] = graph.EdgeEvent{From: e.From, To: e.To, Op: op}
		}
		if _, err := s.Apply(evs); err != nil {
			t.Fatal(err)
		}
	}
	return ref, s.Version()
}

// TestHistoryServesEveryVersionBitIdentical is the tentpole's
// acceptance gate at the serving layer: with base+delta retention
// (HistoryBase=4) every published version of every strategy stays
// queryable, and each answer is bit-identical to a cold solve of a
// full clone taken when the version was published.
func TestHistoryServesEveryVersionBitIdentical(t *testing.T) {
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		t.Run(string(alg), func(t *testing.T) {
			eng := New(Config{Workers: 2, HistoryBase: 4, Damping: testDamping})
			defer eng.Close()
			ref, last := historyStream(t, alg, eng, 20)
			for v := uint64(0); v <= last; v++ {
				rs, ok := ref[v]
				if !ok {
					t.Fatalf("no reference clone for version %d", v)
				}
				for _, q := range []Query{
					{Snapshot: int(v), Measure: MeasureRWR, Source: int(v) % 17},
					{Snapshot: int(v), Measure: MeasureTopK, Source: 3, K: 5},
				} {
					resp, err := eng.Query(context.Background(), q)
					if err != nil {
						t.Fatalf("version %d %s: %v", v, q.Measure, err)
					}
					_, want := coldAnswer(q, rs)
					if !reflect.DeepEqual(want, resp.Scores) {
						t.Errorf("version %d %s: history answer differs from cold solve", v, q.Measure)
					}
				}
			}
			st := eng.Stats()
			if !st.HistoryEnabled {
				t.Error("stats say history disabled")
			}
			if st.HistoryBasePins == 0 {
				t.Error("no base pins recorded")
			}
			// Incremental strategies publish non-structural versions, so
			// some must have been materialized by replay. (BF rebuilds
			// every batch: every version is a base, nothing to replay.)
			if alg != core.BF && st.HistoryMaterializations == 0 {
				t.Error("no materializations despite non-base versions")
			}
			if st.HistoryRequests < st.HistoryMaterializations {
				t.Errorf("requests %d < materializations %d", st.HistoryRequests, st.HistoryMaterializations)
			}
			if st.HistoryVersions == 0 || st.HistoryLogBytes == 0 {
				t.Errorf("empty history log: versions=%d bytes=%d", st.HistoryVersions, st.HistoryLogBytes)
			}
		})
	}
}

// TestHistorySpilledBaseReload is the spill+history interaction
// regression (the bug this PR fixes): a base evicted from the bounded
// snapshot store must not strand its dependent delta chain. With
// MaxSnapshots=2 the early bases are spilled to disk; a deep
// non-base version must still materialize — its base transparently
// reloaded and re-pinned — and answer bit-identically.
func TestHistorySpilledBaseReload(t *testing.T) {
	dir := t.TempDir()
	eng := New(Config{Workers: 1, HistoryBase: 4, MaxSnapshots: 2, SpillDir: dir, Damping: testDamping})
	defer eng.Close()
	ref, last := historyStream(t, core.CLUDE, eng, 24)

	// Find a non-base version whose base is no longer pinned in RAM.
	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	target := uint64(0)
	for v := uint64(1); v <= last; v++ {
		rec, ok := eng.HistoryLog().Get(v)
		if !ok || rec.Structural || pinned[int(v)] {
			continue
		}
		if b, ok := eng.findHistoryBase(v); ok && !pinned[int(b)] {
			target = v
			break
		}
	}
	if target == 0 {
		t.Skip("every reachable base still pinned; bump batches to provoke eviction")
	}
	waitSpilled(t, eng, 1)

	q := Query{Snapshot: int(target), Measure: MeasureRWR, Source: 11}
	resp, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("deep version %d with spilled base: %v", target, err)
	}
	_, want := coldAnswer(q, ref[target])
	if !reflect.DeepEqual(want, resp.Scores) {
		t.Errorf("version %d: answer after base reload differs from cold solve", target)
	}
	st := eng.Stats()
	if st.SpillReloads == 0 {
		t.Error("no spill reload recorded for the evicted base")
	}
	if st.HistoryMaterializations == 0 {
		t.Error("no materialization recorded for the deep version")
	}
}

// TestHistoryMaterializationSingleFlight fires many concurrent
// *distinct* queries (different sources, so query coalescing cannot
// merge them) at one cold non-base version and asserts they shared a
// single replay.
func TestHistoryMaterializationSingleFlight(t *testing.T) {
	eng := New(Config{Workers: 4, HistoryBase: 8, Damping: testDamping})
	defer eng.Close()
	ref, last := historyStream(t, core.CLUDE, eng, 16)

	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	target := uint64(0)
	for v := last; v > 0; v-- {
		if !pinned[int(v)] {
			if _, ok := eng.findHistoryBase(v); ok {
				target = v
				break
			}
		}
	}
	if target == 0 {
		t.Fatal("no materializable non-base version found")
	}

	const G = 8
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			q := Query{Snapshot: int(target), Measure: MeasureRWR, Source: src}
			resp, err := eng.Query(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			_, want := coldAnswer(q, ref[target])
			if !reflect.DeepEqual(want, resp.Scores) {
				t.Errorf("source %d: concurrent history answer differs from cold solve", src)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.HistoryMaterializations != 1 {
		t.Errorf("materializations = %d, want 1 (single-flight replay)", st.HistoryMaterializations)
	}
	if st.HistoryRequests < int64(G) {
		t.Errorf("requests = %d, want >= %d", st.HistoryRequests, G)
	}
	if st.HistoryDedupRatio < 1 {
		t.Errorf("dedup ratio = %v, want >= 1", st.HistoryDedupRatio)
	}
}

// TestHistoryBudgetEviction forces a one-byte residency budget:
// every new materialization must evict its predecessor, and answers
// stay bit-identical.
func TestHistoryBudgetEviction(t *testing.T) {
	eng := New(Config{Workers: 1, HistoryBase: 8, HistoryBudgetBytes: 1, Damping: testDamping})
	defer eng.Close()
	ref, last := historyStream(t, core.CLUDE, eng, 16)

	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	served := 0
	for v := uint64(1); v <= last; v++ {
		if pinned[int(v)] {
			continue
		}
		if _, ok := eng.findHistoryBase(v); !ok {
			continue
		}
		q := Query{Snapshot: int(v), Measure: MeasureRWR, Source: 2}
		resp, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		_, want := coldAnswer(q, ref[v])
		if !reflect.DeepEqual(want, resp.Scores) {
			t.Errorf("version %d: answer under eviction pressure differs from cold solve", v)
		}
		served++
	}
	if served < 3 {
		t.Fatalf("only %d non-base versions served; test needs eviction pressure", served)
	}
	st := eng.Stats()
	if st.HistoryResidents > 1 {
		t.Errorf("residents = %d under a 1-byte budget, want <= 1", st.HistoryResidents)
	}
	if st.HistoryEvictions == 0 {
		t.Error("no evictions under a 1-byte budget")
	}
}

// TestHistoryResidentBytesChargeStructureOncePerBase pins what the LRU's
// byte figure (clude_history_resident_bytes, the HistoryBudgetBytes
// currency) means now that a materialized static container shares its
// base's index structure: every resident pays for the values it owns,
// each base's structure is charged once while any of its versions is
// resident, and evicting the last of them gives both back.
func TestHistoryResidentBytesChargeStructureOncePerBase(t *testing.T) {
	eng := New(Config{Workers: 1, HistoryBase: 8, Damping: testDamping})
	defer eng.Close()
	_, last := historyStream(t, core.CLUDE, eng, 24)

	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	var want int64
	var served []uint64
	perBase := map[uint64]int{}
	for v := uint64(1); v <= last; v++ {
		b, ok := eng.findHistoryBase(v)
		if pinned[int(v)] || !ok {
			continue
		}
		if _, err := eng.Query(context.Background(), Query{Snapshot: int(v), Measure: MeasureRWR, Source: 2}); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		served = append(served, v)
		eng.hist.mu.Lock()
		r := eng.hist.residents[v]
		eng.hist.mu.Unlock()
		if r == nil || r.base != b {
			t.Fatalf("version %d: resident %+v, want one replayed from base %d", v, r, b)
		}
		owned, shared := lu.MemBytes(r.s.F)
		if shared == 0 || owned == 0 {
			t.Fatalf("version %d: owned %d shared %d bytes; a static resident has both", v, owned, shared)
		}
		want += owned
		if perBase[b]++; perBase[b] == 1 {
			want += shared
		}
		if got := eng.Stats().HistoryResidentBytes; got != want {
			t.Fatalf("after version %d (base %d, its resident #%d): resident bytes %d, want %d", v, b, perBase[b], got, want)
		}
	}
	shareable := false
	for _, k := range perBase {
		shareable = shareable || k > 1
	}
	if !shareable {
		t.Fatal("no base served two versions; the once-per-base rule was not exercised")
	}

	// Under a one-byte budget every installation evicts the previous
	// resident, and with it — being the last of its base — the structure.
	tight := New(Config{Workers: 1, HistoryBase: 8, HistoryBudgetBytes: 1, Damping: testDamping})
	defer tight.Close()
	historyStream(t, core.CLUDE, tight, 24) // the same seeded stream, so the same versions
	for _, v := range served {
		if _, err := tight.Query(context.Background(), Query{Snapshot: int(v), Measure: MeasureRWR, Source: 2}); err != nil {
			t.Fatalf("tight budget, version %d: %v", v, err)
		}
		h := tight.hist
		h.mu.Lock()
		owned, shared := lu.MemBytes(h.residents[v].s.F)
		got, residents, structures := h.bytes, len(h.residents), len(h.structures)
		h.mu.Unlock()
		if residents != 1 || structures != 1 || got != owned+shared {
			t.Fatalf("tight budget, version %d: %d residents, %d structures, %d bytes; want 1, 1, %d", v, residents, structures, got, owned+shared)
		}
	}
}

// TestHistoryVersionsListing checks the /v1/snapshots view: bases are
// resident, replayable versions materializable, and a queried version
// flips to resident.
func TestHistoryVersionsListing(t *testing.T) {
	eng := New(Config{Workers: 1, HistoryBase: 4, Damping: testDamping})
	defer eng.Close()
	_, last := historyStream(t, core.CLUDE, eng, 12)

	infos := eng.HistoryVersions()
	if len(infos) == 0 {
		t.Fatal("no history versions listed")
	}
	states := make(map[uint64]string, len(infos))
	for _, in := range infos {
		states[in.Version] = in.State
	}
	for _, s := range eng.Snapshots() {
		if states[uint64(s)] != "resident" {
			t.Errorf("pinned base %d listed as %q, want resident", s, states[uint64(s)])
		}
	}
	var target uint64
	for v := last; v > 0; v-- {
		if states[v] == "materializable" {
			target = v
			break
		}
	}
	if target == 0 {
		t.Fatal("no materializable version listed")
	}
	if _, err := eng.Query(context.Background(), Query{Snapshot: int(target), Measure: MeasureRWR, Source: 1}); err != nil {
		t.Fatal(err)
	}
	for _, in := range eng.HistoryVersions() {
		if in.Version == target && in.State != "resident" {
			t.Errorf("version %d still %q after materialization, want resident", target, in.State)
		}
	}
}

// TestHistoryEvictedResidentStaysValid is the use-after-evict
// regression: a solver bound to a task (or handed to a caller) while
// resident must keep its factors intact after the LRU evicts it —
// eviction may only drop the reference, never recycle the container's
// backing arrays into a later materialization. Under the old free-pool
// recycling this failed deterministically: the third materialization
// below overwrote the held solver's arrays mid-use.
func TestHistoryEvictedResidentStaysValid(t *testing.T) {
	eng := New(Config{Workers: 1, HistoryBase: 8, HistoryBudgetBytes: 1, Damping: testDamping})
	defer eng.Close()
	ref, last := historyStream(t, core.CLUDE, eng, 16)

	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	var vs []uint64
	for v := uint64(1); v <= last && len(vs) < 3; v++ {
		if pinned[int(v)] {
			continue
		}
		if _, ok := eng.findHistoryBase(v); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) < 3 {
		t.Fatalf("only %d materializable versions; test needs 3", len(vs))
	}

	held, err := eng.historySolver(vs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The 1-byte budget makes every install evict its predecessor, so
	// vs[0] is evicted by vs[1]'s install, and vs[2]'s replay is the one
	// that would have scribbled over a recycled container.
	for _, v := range vs[1:] {
		if _, err := eng.historySolver(v); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
	}

	q := Query{Snapshot: int(vs[0]), Measure: MeasureRWR, Source: 5}
	got := measures.NewSolverEngine(testDamping, held).RWR(q.Source)
	_, want := coldAnswer(q, ref[vs[0]])
	if !reflect.DeepEqual(want, got) {
		t.Errorf("version %d: held solver corrupted after eviction (factors recycled under an in-flight reference)", vs[0])
	}
}

// TestHistoryLogTrimsWithBaseRetention is the unbounded-growth
// regression: the record log must shed versions below the oldest
// retained base (they have no reachable base and can never be
// materialized again) instead of growing with the stream.
func TestHistoryLogTrimsWithBaseRetention(t *testing.T) {
	eng := New(Config{Workers: 1, HistoryBase: 4, MaxSnapshots: 2, Damping: testDamping})
	defer eng.Close()
	// The floor hook (cludeserve wires store.TrimHistory here) must see
	// every advance; the last reported floor is the log's final bound.
	var floorMu sync.Mutex
	floor := uint64(0)
	eng.OnHistoryTrim(func(below uint64) {
		floorMu.Lock()
		if below > floor {
			floor = below
		}
		floorMu.Unlock()
	})
	_, last := historyStream(t, core.CLUDE, eng, 32)

	lo, hi, ok := eng.HistoryLog().Bounds()
	if !ok {
		t.Fatal("empty history log")
	}
	oldest := -1
	for _, s := range eng.Snapshots() {
		if oldest < 0 || s < oldest {
			oldest = s
		}
	}
	if oldest < 0 {
		t.Fatal("no pinned bases")
	}
	if lo != uint64(oldest) {
		t.Errorf("log floor %d, oldest retained base %d: records below the floor are dead weight", lo, oldest)
	}
	if lo == 0 {
		t.Error("log never trimmed despite base evictions")
	}
	if hi != last {
		t.Errorf("log newest %d, want %d", hi, last)
	}
	floorMu.Lock()
	reported := floor
	floorMu.Unlock()
	if reported != lo {
		t.Errorf("trim hook last reported floor %d, log floor %d: the store would compact to the wrong bound", reported, lo)
	}
	// Everything below the floor is unanswerable — and says so.
	if lo > 1 {
		_, err := eng.Query(context.Background(), Query{Snapshot: int(lo) - 1, Measure: MeasureRWR, Source: 1})
		if !errors.Is(err, ErrUnknownSnapshot) {
			t.Errorf("version %d below the floor: got %v, want ErrUnknownSnapshot", lo-1, err)
		}
	}
}

// TestHistoryPanickedReplayReleasesFlight is the wedged-single-flight
// regression: a materialization that panics (here: a poisoned record
// whose term indexes out of range) must surface as a query error and
// release the per-version flight, so later queries for the version
// retry instead of blocking forever on a never-closed done channel.
func TestHistoryPanickedReplayReleasesFlight(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 1, HistoryBase: 4})
	defer eng.Close()
	eng.HistoryLog().Record(bennett.VersionRecord{Version: 9})
	eng.HistoryLog().Record(bennett.VersionRecord{Version: 10, Terms: []bennett.Rank1Term{
		{Key: 0, W: []sparse.Entry{{Row: -1, Val: 1}}}, // out of range: replay panics
	}})

	for attempt := 0; attempt < 2; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := eng.Query(ctx, Query{Snapshot: 10, Measure: MeasureRWR, Source: 1})
		cancel()
		if err == nil {
			t.Fatalf("attempt %d: poisoned replay answered successfully", attempt)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("attempt %d: query wedged on the version's single-flight", attempt)
		}
	}
}

// TestHistorySpilledVersionDirectReload checks that a version whose own
// full factors are recoverable from spill is served by direct reload
// (re-pinning it), not by cloning an earlier base and replaying deltas
// under the serialized materialization lock.
func TestHistorySpilledVersionDirectReload(t *testing.T) {
	dir := t.TempDir()
	eng := New(Config{Workers: 1, HistoryBase: 4, MaxSnapshots: 2, SpillDir: dir, Damping: testDamping})
	defer eng.Close()
	ref, last := historyStream(t, core.CLUDE, eng, 24)
	waitSpilled(t, eng, 1)

	pinned := make(map[int]bool)
	for _, s := range eng.Snapshots() {
		pinned[s] = true
	}
	target := uint64(0)
	for v := uint64(1); v <= last; v++ {
		if !pinned[int(v)] && eng.isRetainedBase(v) {
			target = v
			break
		}
	}
	if target == 0 {
		t.Skip("no evicted-but-spilled base; bump batches to provoke eviction")
	}

	before := eng.Stats()
	q := Query{Snapshot: int(target), Measure: MeasureRWR, Source: 7}
	resp, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("spilled version %d: %v", target, err)
	}
	_, want := coldAnswer(q, ref[target])
	if !reflect.DeepEqual(want, resp.Scores) {
		t.Errorf("version %d: reloaded answer differs from cold solve", target)
	}
	after := eng.Stats()
	if after.HistoryMaterializations != before.HistoryMaterializations {
		t.Errorf("spilled version served by delta replay (materializations %d -> %d), want direct reload",
			before.HistoryMaterializations, after.HistoryMaterializations)
	}
	if after.SpillReloads == before.SpillReloads {
		t.Error("no spill reload recorded for the version's own factors")
	}
	repinned := false
	for _, s := range eng.Snapshots() {
		if s == int(target) {
			repinned = true
		}
	}
	if !repinned {
		t.Errorf("version %d not re-pinned after reload", target)
	}
}

// TestHistoryDisabledUnchanged asserts the zero-config path is
// untouched: no HistoryBase means unknown snapshots still 404 and the
// stats block stays dark.
func TestHistoryDisabledUnchanged(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{MaxSnapshots: 3, Workers: 1})
	defer eng.Close()
	st := eng.Stats()
	if st.HistoryEnabled || st.HistoryRequests != 0 || st.HistoryVersions != 0 {
		t.Errorf("history stats active without HistoryBase: %+v", st)
	}
	if eng.HistoryVersions() != nil {
		t.Error("HistoryVersions non-nil with history disabled")
	}
}
