package api

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lu"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// diagSolver returns factors of diag(d): the rwr answer from source u is
// (1−damping)/d[u] at u and a zero elsewhere, so a test picks the
// floats an answer spells. A ppr over more seeds than the reach cap
// takes the dense route, where a zero divided by a negative pivot is
// −0. The pivots are written straight into the factors of an identity:
// Factorize would refuse the tiny ones as singular.
func diagSolver(t *testing.T, d []float64) *lu.Solver {
	t.Helper()
	c := sparse.NewCOO(len(d))
	for i := range d {
		c.Add(i, i, 1)
	}
	s, err := lu.FactorizeOrdered(c.ToCSR(), sparse.IdentityOrdering(len(d)))
	if err != nil {
		t.Fatal(err)
	}
	copy(s.F.(*lu.StaticFactors).D, d)
	return s
}

// fixedLive is a serve.LiveSource over one solver whose version the
// test bumps by hand.
type fixedLive struct {
	mu      sync.Mutex
	version uint64
	s       *lu.Solver
}

func (f *fixedLive) View(fn func(version uint64, s *lu.Solver)) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f.version, f.s)
	return true
}

func (f *fixedLive) publish(s *lu.Solver) {
	f.mu.Lock()
	f.version, f.s = f.version+1, s
	f.mu.Unlock()
}

const hitTestDamping = 0.85

// edgeDiagonals give rwr scores 0.15/d on the boundaries of
// encoding/json's float format: 1e21 and just under it, 1e-7 (the 'e'
// range with a one-digit exponent), denormals, and ordinary magnitudes
// of either sign.
func edgeDiagonals(rng *xrand.Rand) []float64 {
	edges := []float64{
		0.15 / 1e21, 0.15 / 9.99e20, 0.15 / 1e-7, 1e307, -3e307, 1, -2.5, 0.15 / 1e-6,
		0.3, -0.15 / 1.2e22, 7, 0.15,
	}
	d := make([]float64, len(edges))
	for i, p := range rng.Perm(len(edges)) {
		d[i] = edges[p]
	}
	return d
}

func queryURL(q serve.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/v1/query?measure=%s", q.Measure)
	if q.Snapshot >= 0 {
		fmt.Fprintf(&b, "&snapshot=%d", q.Snapshot)
	}
	switch q.Measure {
	case serve.MeasureRWR:
		fmt.Fprintf(&b, "&source=%d", q.Source)
	case serve.MeasureTopK:
		fmt.Fprintf(&b, "&source=%d&k=%d", q.Source, q.K)
	case serve.MeasurePPR:
		parts := make([]string, len(q.Sources))
		for i, s := range q.Sources {
			parts[i] = strconv.Itoa(s)
		}
		b.WriteString("&sources=" + strings.Join(parts, ","))
	}
	return b.String()
}

// TestStoredHitBodiesMatchFreshEncoding is the property the hit path
// rests on: over a random sequence of rwr / ppr / topk / pagerank
// requests against pinned and live keys — with answers holding −0,
// 1e21, 1e-7 and denormals, and with publishes and re-pins moving keys
// under the sequence — every body the server writes, whether encoded
// for a miss, encoded and stored by a first hit, or written from a
// stored entry, is byte for byte appendResponse of the full Response
// and encoding/json's indented spelling of it (what every earlier
// version of the server wrote).
func TestStoredHitBodiesMatchFreshEncoding(t *testing.T) {
	rng := xrand.New(20)
	eng := serve.New(serve.Config{Damping: hitTestDamping, Workers: 2, CacheSize: 48})
	defer eng.Close()
	const n = 12
	eng.Pin(0, diagSolver(t, edgeDiagonals(rng)))
	eng.Pin(1, diagSolver(t, edgeDiagonals(rng)))
	live := &fixedLive{s: diagSolver(t, edgeDiagonals(rng))}
	eng.AttachLive(live)
	srv := New(Options{Engine: eng})
	ctx := context.Background()

	randomQuery := func() serve.Query {
		q := serve.Query{Snapshot: rng.Intn(3) - 1}
		switch rng.Intn(4) {
		case 0:
			q.Measure, q.Source = serve.MeasureRWR, rng.Intn(n)
		case 1:
			q.Measure, q.Source = serve.MeasureTopK, rng.Intn(n)
			q.K = []int{1, 3, n - 1, n, n + 2}[rng.Intn(5)]
		case 2:
			// Up to three seeds probe the reach; four or more exceed the
			// cap of 0.25·n and solve dense, which is where −0 comes from.
			q.Measure = serve.MeasurePPR
			for i := 1 + rng.Intn(5); i > 0; i-- {
				q.Sources = append(q.Sources, rng.Intn(n))
			}
		default:
			q.Measure = serve.MeasurePageRank
		}
		return q
	}

	var misses, firstHits, storedHits int
	sawNegZero, sawExp := false, false
	for i := 0; i < 4000; i++ {
		switch {
		case i%500 == 499:
			live.publish(diagSolver(t, edgeDiagonals(rng)))
		case i%700 == 699:
			eng.Pin(rng.Intn(2), diagSolver(t, edgeDiagonals(rng)))
		}
		q := randomQuery()

		// What the entry holds before the request decides which of the
		// three paths writes the body.
		stored := false
		if rng.Intn(2) == 0 {
			pre, err := eng.QueryShared(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			stored = pre.HitBody() != nil
		}

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryURL(q), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d %s: status %d %s", i, queryURL(q), rec.Code, rec.Body.Bytes())
		}
		body := rec.Body.Bytes()

		want, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want.CacheHit = bytes.Contains(body, []byte(`"cache_hit": true`))
		fresh, ok := appendResponse(nil, want)
		if !ok {
			t.Fatalf("request %d %s: non-finite answer %v", i, queryURL(q), want.Scores)
		}
		if !bytes.Equal(body, fresh) {
			t.Fatalf("request %d %s (stored=%v): body differs from a fresh encoding\n got: %q\nwant: %q", i, queryURL(q), stored, body, fresh)
		}
		if ref := referenceBody(want); !bytes.Equal(body, ref) {
			t.Fatalf("request %d %s: body differs from encoding/json's\n got: %q\nwant: %q", i, queryURL(q), body, ref)
		}

		switch {
		case !want.CacheHit:
			misses++
		case stored:
			storedHits++
		default:
			firstHits++
		}
		if want.CacheHit {
			// A hit leaves exactly the bytes it wrote on the entry.
			after, err := eng.QueryShared(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after.HitBody(), body) {
				t.Fatalf("request %d %s: the entry holds %q after a hit that wrote %q", i, queryURL(q), after.HitBody(), body)
			}
		}
		for _, v := range want.Scores {
			sawNegZero = sawNegZero || (v == 0 && math.Signbit(v))
			sawExp = sawExp || math.Abs(v) >= 1e21 || (v != 0 && math.Abs(v) < 1e-6)
		}
	}
	if misses < 100 || firstHits < 100 || storedHits < 100 {
		t.Fatalf("paths not all exercised: %d misses, %d first hits, %d stored hits", misses, firstHits, storedHits)
	}
	if !sawNegZero || !sawExp {
		t.Fatalf("edge spellings not reached: -0 %v, exponent form %v", sawNegZero, sawExp)
	}
}

// TestNonFiniteAnswerNeverStored: an answer encoding/json refuses is
// handed to writeJSON on every hit, as before, and leaves no body
// behind.
func TestNonFiniteAnswerNeverStored(t *testing.T) {
	eng := serve.New(serve.Config{Damping: hitTestDamping, Workers: 1})
	defer eng.Close()
	eng.Pin(0, diagSolver(t, []float64{1, math.SmallestNonzeroFloat64, 1, 1}))
	srv := New(Options{Engine: eng})
	q := serve.Query{Snapshot: 0, Measure: serve.MeasureRWR, Source: 1}

	want := httptest.NewRecorder()
	resp, err := eng.Query(context.Background(), q)
	if err != nil || !math.IsInf(resp.Scores[1], 1) {
		t.Fatalf("test vacuous: scores %v err %v", resp, err)
	}
	writeJSON(want, resp)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryURL(q), nil))
		if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("hit %d: got %d %q, writeJSON gives %d %q", i, rec.Code, rec.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
	shared, err := eng.QueryShared(context.Background(), q)
	if err != nil || !shared.CacheHit {
		t.Fatalf("key not warm: %+v %v", shared, err)
	}
	if got := shared.HitBody(); got != nil {
		t.Fatalf("a refused answer left a body: %q", got)
	}
}
