package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lu"
)

// Tests of the admission pipeline under load: single-flight coalescing
// (exactly one solve for identical concurrent queries, cancellation
// never poisons the shared result), backpressure (a full queue sheds
// promptly and the counters balance), the publish-mid-flight cache
// regression (a racing publish can never file a stale answer under a
// fresh version's key), and blocked-group bit-identity. All run under
// -race in CI.

// gatedLive is a LiveSource whose View can be made to block on a
// chosen call number, wedging the single worker of a test engine at a
// known point: the pair (version, solver) is read *before* the gate —
// like core.Stream, a View answers from the state it opened on — so a
// publish during the gate affects only later Views.
type gatedLive struct {
	mu      sync.Mutex
	version uint64
	s       *lu.Solver

	calls   atomic.Int64
	blockOn int64 // View call number that gates (0: never)
	entered chan struct{}
	release chan struct{}
}

func newGatedLive(s *lu.Solver, blockOn int64) *gatedLive {
	return &gatedLive{
		s:       s,
		blockOn: blockOn,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

// set publishes a new version.
func (g *gatedLive) set(version uint64, s *lu.Solver) {
	g.mu.Lock()
	g.version, g.s = version, s
	g.mu.Unlock()
}

func (g *gatedLive) View(fn func(version uint64, s *lu.Solver)) bool {
	g.mu.Lock()
	v, s := g.version, g.s
	g.mu.Unlock()
	if s == nil {
		return false
	}
	if c := g.calls.Add(1); c == g.blockOn {
		g.entered <- struct{}{}
		<-g.release
	}
	fn(v, s)
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for ", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameAnswer asserts bit-identity of a response against a cold answer.
func sameAnswer(t *testing.T, tag string, resp *Response, nodes []int, scores []float64) {
	t.Helper()
	if len(resp.Scores) != len(scores) {
		t.Fatalf("%s: got %d scores, want %d", tag, len(resp.Scores), len(scores))
	}
	for i := range scores {
		if resp.Scores[i] != scores[i] {
			t.Fatalf("%s: score %d differs: %v vs %v", tag, i, resp.Scores[i], scores[i])
		}
	}
	if len(resp.Nodes) != len(nodes) {
		t.Fatalf("%s: got %d nodes, want %d", tag, len(resp.Nodes), len(nodes))
	}
	for i := range nodes {
		if resp.Nodes[i] != nodes[i] {
			t.Fatalf("%s: node %d differs: %d vs %d", tag, i, resp.Nodes[i], nodes[i])
		}
	}
}

// TestCoalescingSoakExactlyOneSolve races batches of identical queries
// — plus waiters whose contexts get cancelled mid-flight — and asserts
// the single-flight contract: exactly one cold solve per round, every
// successful answer byte-identical to the cold reference, and the
// cache fill intact afterwards (cancellation cannot poison the shared
// result).
func TestCoalescingSoakExactlyOneSolve(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 2, CacheSize: 4096})
	defer eng.Close()

	// Eight rounds, and on a box so loaded that 32 goroutines released
	// together still ran one after the other (about one run in a hundred
	// here), more of them until some query has joined a flight: the
	// per-round contract below is what is under test, the closing
	// "anything coalesced at all" check only that the soak reached it.
	const rounds, maxRounds = 8, 64
	const writers = 24
	const cancels = 8
	for r := 0; r < rounds || (r < maxRounds && eng.Stats().Coalesced == 0); r++ {
		// A fresh key every round, across measures.
		q := Query{Snapshot: r % 10}
		switch r % 3 {
		case 0:
			q.Measure, q.Source = MeasureRWR, 10+r
		case 1:
			q.Measure, q.Source, q.K = MeasureTopK, 10+r, 6
		case 2:
			q.Measure, q.Sources = MeasurePPR, []int{r, 30 + r}
		}
		wantNodes, wantScores := coldAnswer(q, ref[q.Snapshot])
		before := eng.Stats()

		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, writers+cancels)
		resps := make([]*Response, writers+cancels)
		for i := 0; i < writers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resps[i], errs[i] = eng.Query(context.Background(), q)
			}()
		}
		for i := writers; i < writers+cancels; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					<-start
					time.Sleep(50 * time.Microsecond)
					cancel()
				}()
				<-start
				resps[i], errs[i] = eng.Query(ctx, q)
				cancel()
			}()
		}
		close(start)
		wg.Wait()

		for i, err := range errs {
			switch {
			case err == nil:
				sameAnswer(t, "round soak", resps[i], wantNodes, wantScores)
			case i >= writers && errors.Is(err, context.Canceled):
				// A cancelled waiter abandoning the flight is fine.
			default:
				t.Fatalf("round %d waiter %d: unexpected error %v", r, i, err)
			}
		}

		after := eng.Stats()
		if d := after.ColdSolves - before.ColdSolves; d != 1 {
			t.Fatalf("round %d: %d cold solves for identical concurrent queries, want exactly 1", r, d)
		}
		// The fill must have happened even if waiters were cancelled.
		probe, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !probe.CacheHit {
			t.Fatalf("round %d: post-round probe missed the cache", r)
		}
		sameAnswer(t, "round probe", probe, wantNodes, wantScores)
	}

	st := eng.Stats()
	if st.Admitted+st.Coalesced+st.Shed != st.Queries {
		t.Fatalf("admission counters do not balance: admitted %d + coalesced %d + shed %d != queries %d",
			st.Admitted, st.Coalesced, st.Shed, st.Queries)
	}
	if st.Coalesced == 0 {
		t.Fatal("soak produced no coalesced queries at all")
	}
}

// TestBackpressureShedsPromptly wedges the single worker, fills the
// one-slot admission queue, and asserts that further queries fail fast
// with ErrOverloaded, that the admission counters balance exactly, and
// that Close leaks no goroutines.
func TestBackpressureShedsPromptly(t *testing.T) {
	base := runtime.NumGoroutine()
	eng, _, ref := pinnedEngine(t, Config{
		Workers: 1, QueueDepth: 1, CacheSize: 8,
	})
	g := newGatedLive(ref[0].Clone(), 2) // call 1: resolve; call 2: worker solve
	eng.AttachLive(g)

	type result struct {
		resp *Response
		err  error
	}
	liveDone := make(chan result, 1)
	go func() {
		resp, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 3})
		liveDone <- result{resp, err}
	}()
	<-g.entered // worker is wedged mid-solve; the queue is empty again

	queuedDone := make(chan result, 1)
	go func() {
		resp, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 5})
		queuedDone <- result{resp, err}
	}()
	waitFor(t, func() bool { return eng.Stats().Admitted == 2 }, "queued query admission")

	// Queue full, worker wedged: distinct queries must shed immediately.
	const probes = 5
	for i := 0; i < probes; i++ {
		begin := time.Now()
		_, err := eng.Query(context.Background(), Query{Snapshot: 0, Measure: MeasureRWR, Source: 20 + i})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("probe %d: got %v, want ErrOverloaded", i, err)
		}
		if d := time.Since(begin); d > 2*time.Second {
			t.Fatalf("probe %d: shed took %v, want immediate", i, d)
		}
	}
	if st := eng.Stats(); st.Shed != probes {
		t.Fatalf("Shed = %d, want %d", st.Shed, probes)
	}

	close(g.release)
	lr := <-liveDone
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	if !lr.resp.Live {
		t.Fatal("wedged query did not come back live")
	}
	qr := <-queuedDone
	if qr.err != nil {
		t.Fatal(qr.err)
	}
	wantNodes, wantScores := coldAnswer(Query{Measure: MeasureRWR, Source: 5}, ref[0])
	sameAnswer(t, "queued", qr.resp, wantNodes, wantScores)

	st := eng.Stats()
	if st.Queries != 2+probes || st.Admitted+st.Coalesced+st.Shed != st.Queries {
		t.Fatalf("admission counters do not balance: queries %d admitted %d coalesced %d shed %d",
			st.Queries, st.Admitted, st.Coalesced, st.Shed)
	}

	eng.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+3 }, "goroutines to drain after Close")
}

// TestPublishMidFlightCannotFillStaleCache is the regression test for
// the stale-fill race: a publish landing between a live query's
// resolution and its solve must not let the engine cache the old
// factors' answer under the new version's key. The worker recomputes
// the key from the same locked view it solves under, so the v0 answer
// files under v0 and a same-parameter query after the publish starts
// its own flight at v1.
func TestPublishMidFlightCannotFillStaleCache(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1, CacheSize: 256})
	defer eng.Close()
	s0, s1 := ref[0].Clone(), ref[9].Clone()
	g := newGatedLive(s0, 2)
	eng.AttachLive(g)

	// Pick a source whose RWR actually changed between the two factor
	// states, so caching the wrong version's answer would be caught.
	source := -1
	var cold0, cold1 []float64
	for u := 0; u < s0.F.Dim() && source < 0; u++ {
		_, c0 := coldAnswer(Query{Measure: MeasureRWR, Source: u}, s0)
		_, c1 := coldAnswer(Query{Measure: MeasureRWR, Source: u}, s1)
		for i := range c0 {
			if c0[i] != c1[i] {
				source, cold0, cold1 = u, c0, c1
				break
			}
		}
	}
	if source < 0 {
		t.Fatal("test vacuous: v0 and v1 factors give identical answers for every source")
	}
	q := Query{Snapshot: -1, Measure: MeasureRWR, Source: source}

	type result struct {
		resp *Response
		err  error
	}
	aDone := make(chan result, 1)
	go func() {
		resp, err := eng.Query(context.Background(), q)
		aDone <- result{resp, err}
	}()
	<-g.entered // worker holds the v0 view mid-solve

	g.set(1, s1) // publish v1 while A's solve is in flight

	bDone := make(chan result, 1)
	go func() {
		resp, err := eng.Query(context.Background(), q)
		bDone <- result{resp, err}
	}()
	waitFor(t, func() bool { return eng.Stats().Admitted == 2 }, "B admission")

	close(g.release)
	a := <-aDone
	if a.err != nil {
		t.Fatal(a.err)
	}
	b := <-bDone
	if b.err != nil {
		t.Fatal(b.err)
	}
	if a.resp.Version != 0 {
		t.Fatalf("A answered at version %d, want 0", a.resp.Version)
	}
	sameAnswer(t, "A (v0)", a.resp, nil, cold0)
	if b.resp.Version != 1 {
		t.Fatalf("B answered at version %d, want 1", b.resp.Version)
	}
	if b.resp.CacheHit {
		t.Fatal("B hit the cache: a stale v0 answer was filed under the v1 key")
	}
	sameAnswer(t, "B (v1)", b.resp, nil, cold1)

	// C must hit B's fill and carry v1's bytes — never v0's.
	c, err := eng.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !c.CacheHit || c.Version != 1 {
		t.Fatalf("C: CacheHit=%v Version=%d, want a v1 cache hit", c.CacheHit, c.Version)
	}
	sameAnswer(t, "C (cached v1)", c, nil, cold1)

	st := eng.Stats()
	if st.Coalesced != 0 {
		t.Fatalf("B coalesced onto A across a publish (Coalesced = %d): version is missing from the flight key", st.Coalesced)
	}
	if st.ColdSolves != 2 {
		t.Fatalf("ColdSolves = %d, want 2 (one per version)", st.ColdSolves)
	}
}

// TestBlockedGroupBitIdentical wedges the single worker, queues six
// distinct same-snapshot queries behind it, and asserts they come back
// as exactly one blocked multi-RHS solve with every answer — and the
// cache entries it fills — bit-identical to the cold single-query
// path.
func TestBlockedGroupBitIdentical(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{
		Workers: 1, QueueDepth: 16, CacheSize: 512,
	})
	defer eng.Close()
	g := newGatedLive(ref[9].Clone(), 2)
	eng.AttachLive(g)

	liveDone := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), Query{Snapshot: -1, Measure: MeasureRWR, Source: 1})
		liveDone <- err
	}()
	<-g.entered

	const snap = 4
	qs := []Query{
		{Snapshot: snap, Measure: MeasureRWR, Source: 3},
		{Snapshot: snap, Measure: MeasureRWR, Source: 11},
		{Snapshot: snap, Measure: MeasurePPR, Sources: []int{2, 9}},
		{Snapshot: snap, Measure: MeasureTopK, Source: 5, K: 7},
		{Snapshot: snap, Measure: MeasurePageRank},
		{Snapshot: snap, Measure: MeasurePPR, Sources: []int{0}},
	}
	resps := make([]*Response, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = eng.Query(context.Background(), q)
		}()
	}
	waitFor(t, func() bool { return eng.Stats().Admitted == int64(1+len(qs)) }, "group admission")

	close(g.release)
	wg.Wait()
	if err := <-liveDone; err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		wantNodes, wantScores := coldAnswer(q, ref[snap])
		sameAnswer(t, q.Measure, resps[i], wantNodes, wantScores)
		if resps[i].Snapshot != snap || resps[i].CacheHit {
			t.Fatalf("query %d: Snapshot=%d CacheHit=%v", i, resps[i].Snapshot, resps[i].CacheHit)
		}
	}

	st := eng.Stats()
	if st.BlockSolves != 1 || st.BlockedRHS != int64(len(qs)) {
		t.Fatalf("BlockSolves=%d BlockedRHS=%d, want one block of %d", st.BlockSolves, st.BlockedRHS, len(qs))
	}

	// The block's cache fills must serve subsequent singles verbatim.
	for i, q := range qs {
		again, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit {
			t.Fatalf("query %d: blocked answer was not cached", i)
		}
		wantNodes, wantScores := coldAnswer(q, ref[snap])
		sameAnswer(t, q.Measure+" cached", again, wantNodes, wantScores)
	}
}
