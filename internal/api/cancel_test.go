package api

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lu"
	"repro/internal/serve"
)

// gatedLive is a serve.LiveSource whose second View blocks until the
// test closes release. A live query is viewed twice, once when it is
// routed and once by the worker that solves it, so the first live query
// holds its worker inside the solve for as long as the test likes.
type gatedLive struct {
	s                *lu.Solver
	views            atomic.Int32
	entered, release chan struct{}
}

func (g *gatedLive) View(fn func(version uint64, s *lu.Solver)) bool {
	if g.views.Add(1) == 2 {
		close(g.entered)
		<-g.release
	}
	fn(1, g.s)
	return true
}

// TestQueryCancelledByRequestContext: a client that gives up on a query
// queued behind a busy worker cancels it through the request's context.
// The handler returns without waiting for the worker, the engine counts
// the query as rejected, and the pool goes on to answer later queries,
// the abandoned query's key included.
func TestQueryCancelledByRequestContext(t *testing.T) {
	s := diagSolver(t, []float64{1, 2, 4, 8})
	live := &gatedLive{s: s, entered: make(chan struct{}), release: make(chan struct{})}
	eng := serve.New(serve.Config{Damping: hitTestDamping, Workers: 1})
	defer eng.Close()
	eng.Pin(0, s)
	eng.AttachLive(live)

	returned := make(chan string, 4)
	h := New(Options{Engine: eng})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- r.URL.RawQuery
	}))
	defer srv.Close()
	// Runs before srv.Close, which waits for the gated handlers.
	release := sync.OnceFunc(func() { close(live.release) })
	defer release()

	get := func(ctx context.Context, query string) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/query?"+query, nil)
		if err != nil {
			return 0, err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// The live query occupies the only worker.
	busy := make(chan int, 1)
	go func() {
		code, err := get(context.Background(), "measure=rwr&source=0")
		if err != nil {
			t.Error(err)
		}
		busy <- code
	}()
	<-live.entered

	// A pinned query queues behind it; its client gives up once the
	// engine has admitted it.
	const queued = "measure=rwr&source=1&snapshot=0"
	ctx, cancel := context.WithCancel(context.Background())
	gaveUp := make(chan error, 1)
	go func() {
		_, err := get(ctx, queued)
		gaveUp <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Admitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the queued query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gaveUp; err == nil {
		t.Fatal("the cancelled request got an answer")
	}
	select {
	case q := <-returned:
		if q != queued {
			t.Fatalf("handler for %q returned first, want the cancelled %q", q, queued)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler of the cancelled query did not return while the worker was busy")
	}
	if st := eng.Stats(); st.Rejected != 1 || st.ColdSolves != 0 {
		t.Fatalf("after the cancellation: rejected %d, cold solves %d; want 1 and 0", st.Rejected, st.ColdSolves)
	}

	release()
	if code := <-busy; code != http.StatusOK {
		t.Fatalf("the live query behind the gate answered %d", code)
	}
	code, err := get(context.Background(), queued)
	if err != nil || code != http.StatusOK {
		t.Fatalf("the next query for the cancelled key: %d, %v; want 200", code, err)
	}
	if st := eng.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected %d after the pool recovered, want 1", st.Rejected)
	}
}
