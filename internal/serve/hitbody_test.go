package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
)

// The hit-body contract of the cache (cache.go): an entry's encoded
// body appears with the first QueryShared hit that stores one, is
// served to every later hit of that entry, and goes wherever the entry
// goes — LRU eviction, snapshot eviction's purgePrefix, a re-pin's new
// generation. Nothing but a hit can store one.

// sharedHit runs q through QueryShared and requires the given hit flag.
func sharedHit(t *testing.T, eng *Engine, q Query, wantHit bool) *Response {
	t.Helper()
	resp, err := eng.QueryShared(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit != wantHit {
		t.Fatalf("%+v: cache_hit %v, want %v", q, resp.CacheHit, wantHit)
	}
	return resp
}

// warmBody takes q from cold to a stored body, checking on the way that
// the miss cannot store one and that the entry copies what it is given.
func warmBody(t *testing.T, eng *Engine, q Query, body string) {
	t.Helper()
	miss := sharedHit(t, eng, q, false)
	miss.StoreHitBody([]byte("from a miss"))
	first := sharedHit(t, eng, q, true)
	if got := first.HitBody(); got != nil {
		t.Fatalf("a miss stored a body: %q", got)
	}
	buf := []byte(body)
	first.StoreHitBody(buf)
	buf[0] ^= 0xff // the entry must own its bytes, not the encoder's buffer
	if got := sharedHit(t, eng, q, true).HitBody(); string(got) != body {
		t.Fatalf("later hit carries %q, want %q", got, body)
	}
}

func TestHitBodyStoredOnceAndOnlyByHits(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 1, CacheSize: 64})
	defer eng.Close()
	q := Query{Snapshot: 1, Measure: MeasureTopK, Source: 4, K: 3}
	warmBody(t, eng, q, "first")

	// The first store wins: a body is a function of the key, so a second
	// encoder can only be offering the same bytes.
	again := sharedHit(t, eng, q, true)
	again.StoreHitBody([]byte("second"))
	if got := sharedHit(t, eng, q, true).HitBody(); string(got) != "first" {
		t.Fatalf("a second store replaced the body: %q", got)
	}

	// Query hands out owned copies and no entry.
	resp, err := eng.Query(context.Background(), q)
	if err != nil || !resp.CacheHit {
		t.Fatalf("Query on a warm key: hit=%v err=%v", resp != nil && resp.CacheHit, err)
	}
	if resp.HitBody() != nil {
		t.Fatal("Query exposed the entry's body")
	}
	shared := sharedHit(t, eng, q, true)
	resp.Scores[0], resp.Nodes[0] = -1, -1
	if shared.Scores[0] == -1 || shared.Nodes[0] == -1 {
		t.Fatal("Query returned the cache's own slices")
	}
}

func TestHitBodyDroppedWithLRUEntry(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 1, CacheSize: 2})
	defer eng.Close()
	a := Query{Snapshot: 0, Measure: MeasureRWR, Source: 1}
	warmBody(t, eng, a, "body of a")
	// Two younger keys push a out of the two-entry cache.
	sharedHit(t, eng, Query{Snapshot: 0, Measure: MeasureRWR, Source: 2}, false)
	sharedHit(t, eng, Query{Snapshot: 0, Measure: MeasureRWR, Source: 3}, false)
	if ev := eng.Stats().CacheEvictions; ev == 0 {
		t.Fatal("test vacuous: nothing was evicted")
	}
	sharedHit(t, eng, a, false)
	if got := sharedHit(t, eng, a, true).HitBody(); got != nil {
		t.Fatalf("re-filled entry still carries the evicted body %q", got)
	}
}

func TestHitBodyDroppedByPurgePrefix(t *testing.T) {
	c := newLRUCache(8)
	keep, drop := pinnedPrefix(1, 7)+"|rwr", pinnedPrefix(2, 8)+"|rwr"
	c.put(keep, answer{scores: []float64{1}})
	c.put(drop, answer{scores: []float64{2}})
	for _, key := range []string{keep, drop} {
		(&Response{hit: c.get(key)}).StoreHitBody([]byte(key))
	}
	if n := c.purgePrefix("2#"); n != 1 {
		t.Fatalf("purged %d entries, want 1", n)
	}
	if c.get(drop) != nil {
		t.Fatal("purged entry still reachable")
	}
	if got := (&Response{hit: c.get(keep)}).HitBody(); string(got) != keep {
		t.Fatalf("surviving entry's body is %q", got)
	}
}

func TestHitBodyNotServedAcrossRePin(t *testing.T) {
	eng, _, ref := pinnedEngine(t, Config{Workers: 1})
	defer eng.Close()
	q := Query{Snapshot: 0, Measure: MeasurePageRank}
	warmBody(t, eng, q, "old factors")
	old := sharedHit(t, eng, q, true).Scores

	eng.Pin(0, ref[5].Clone())
	fresh := sharedHit(t, eng, q, false)
	same := true
	for i := range old {
		same = same && fresh.Scores[i] == old[i]
	}
	if same {
		t.Fatal("test vacuous: old and new factors gave identical answers")
	}
	if got := sharedHit(t, eng, q, true).HitBody(); got != nil {
		t.Fatalf("new generation served the old generation's body %q", got)
	}
}

// TestHitBodyNeverStoredByCoalescedFollower wedges the worker on a
// leader's solve, lets a second identical query join its flight, and
// has both try to store a body: neither is a hit, so the entry the
// flight fills must come out bare.
func TestHitBodyNeverStoredByCoalescedFollower(t *testing.T) {
	eng := New(Config{Workers: 1, CacheSize: 8, Damping: testDamping})
	defer eng.Close()
	_, _, ref := pinnedEngine(t, Config{Workers: 1})
	g := newGatedLive(ref[0].Clone(), 2) // call 1: leader resolve; call 2: worker solve
	eng.AttachLive(g)

	q := Query{Snapshot: -1, Measure: MeasureRWR, Source: 3}
	answers := make(chan *Response, 2)
	ask := func() {
		resp, err := eng.QueryShared(context.Background(), q)
		if err != nil {
			t.Error(err)
		}
		answers <- resp
	}
	go ask()
	<-g.entered
	go ask()
	waitFor(t, func() bool { return eng.Stats().Coalesced == 1 }, "follower to coalesce")
	close(g.release)
	for i := 0; i < 2; i++ {
		resp := <-answers
		if resp == nil {
			t.FailNow()
		}
		if resp.CacheHit {
			t.Fatal("a flight's waiter reported a cache hit")
		}
		resp.StoreHitBody([]byte("from the flight"))
	}
	if got := sharedHit(t, eng, q, true).HitBody(); got != nil {
		t.Fatalf("a flight waiter stored a body: %q", got)
	}
}

// TestHitBodyConcurrentFirstHits races many first hits of one warm key
// (run under -race): every goroutine may find the entry bare and offer
// its encoding; exactly one body survives and everyone reads it whole.
func TestHitBodyConcurrentFirstHits(t *testing.T) {
	eng, _, _ := pinnedEngine(t, Config{Workers: 2, CacheSize: 64})
	defer eng.Close()
	q := Query{Snapshot: 3, Measure: MeasureRWR, Source: 9}
	sharedHit(t, eng, q, false)

	const goroutines = 16
	body := bytes.Repeat([]byte("0.123456789,\n"), 512)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := eng.QueryShared(context.Background(), q)
				if err != nil || !resp.CacheHit {
					t.Errorf("warm key: hit=%v err=%v", resp != nil && resp.CacheHit, err)
					return
				}
				if got := resp.HitBody(); got == nil {
					resp.StoreHitBody(append([]byte(nil), body...))
				} else if !bytes.Equal(got, body) {
					t.Errorf("read a torn or foreign body (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := sharedHit(t, eng, q, true).HitBody(); !bytes.Equal(got, body) {
		t.Fatalf("no body survived the race (%d bytes)", len(got))
	}
}

// pathEngine pins one snapshot of an n-node chain 0 → 1 → … → n−1, the
// cheapest factors whose rwr answer is n scores long.
func pathEngine(t *testing.T, n int) *Engine {
	t.Helper()
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
		if i > 0 {
			c.Add(i, i-1, -testDamping)
		}
	}
	s, err := lu.FactorizeOrdered(c.ToCSR(), sparse.IdentityOrdering(n))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: 1, CacheSize: 8, Damping: testDamping})
	eng.Pin(0, s)
	return eng
}

// TestWarmHitAllocsIndependentOfN: a hit whose body is stored does no
// O(n) work — in particular no score-vector copy — so what it allocates
// (the task, its key, the Response) does not grow with the answer.
func TestWarmHitAllocsIndependentOfN(t *testing.T) {
	measure := func(n int) float64 {
		eng := pathEngine(t, n)
		defer eng.Close()
		q := Query{Snapshot: 0, Measure: MeasureRWR, Source: 0}
		warmBody(t, eng, q, "stored")
		ctx := context.Background()
		return testing.AllocsPerRun(200, func() {
			resp, err := eng.QueryShared(ctx, q)
			if err != nil || resp.HitBody() == nil || len(resp.Scores) != n {
				t.Fatalf("warm hit: resp=%+v err=%v", resp, err)
			}
		})
	}
	small, large := measure(16), measure(4096)
	if small != large {
		t.Fatalf("a warm hit allocates %v at n=16 but %v at n=4096", small, large)
	}
	if large > 10 {
		t.Fatalf("a warm hit allocates %v objects; the hit path has grown", large)
	}
}
