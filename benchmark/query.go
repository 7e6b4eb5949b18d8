package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Operation classes of the query workloads (sample.class).
const (
	classTopK = iota
	classRWR
	classPPR
)

// queryParams fixes one query workload: the server under test, the
// traffic mix, and the amount of work per phase at the nominal run
// length. Rates and counts are absolute and frozen here, so that every
// run of every later commit does identical work.
//
// The untraced run, whose figures are gated, spends its whole length in
// the closed loop they come from. The traced run does a shorter closed
// loop (for the tracing overhead) and then the open loop, whose rate sits
// at about a sixth of the seed commit's closed-loop capacity: low enough
// that the median latency follows service time rather than the queue.
type queryParams struct {
	name          string
	snapshots     int     // -snapshots: how many of the 250 the server retains
	hot           bool    // 512 Zipf-weighted keys instead of 128 k uniform ones
	warmN         int     // untimed closed-loop operations before phase A (wide)
	closedN       int     // phase A of the untraced run: closed loop
	tracedClosedN int     // phase A of the traced run
	openN         int     // phase B, traced run only: open loop, Poisson
	openRate      float64 // phase B arrivals per second
}

var (
	queryWide = queryParams{
		name: "query_wide", snapshots: 64,
		warmN:   400,
		closedN: 8000, tracedClosedN: 3200, openN: 1000, openRate: 100,
	}
	queryHot = queryParams{
		name: "query_hot", snapshots: 8,
		hot:     true,
		closedN: 57600, tracedClosedN: 19200, openN: 6000, openRate: 600,
	}
)

// closedWindows is how many equal sub-windows a closed-loop phase is cut
// into; throughput and CPU per operation are medians over them.
const closedWindows = 32

const (
	hotSources   = 64  // distinct sources of query_hot
	hotSnapshots = 4   // latest snapshots query_hot addresses
	hotZipf      = 1.1 // skew of the source popularity
	topK         = 10
	pprSeeds     = 3
)

// queryReq is one generated request.
type queryReq struct {
	class    int
	sources  []int // one source for topk/rwr, pprSeeds for ppr
	snapshot int
}

func (q queryReq) path() string {
	var b strings.Builder
	b.WriteString("/v1/query?measure=")
	switch q.class {
	case classTopK:
		fmt.Fprintf(&b, "topk&k=%d&source=%d", topK, q.sources[0])
	case classRWR:
		fmt.Fprintf(&b, "rwr&source=%d", q.sources[0])
	case classPPR:
		b.WriteString("ppr&sources=")
		for i, s := range q.sources {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(s))
		}
	}
	if q.snapshot >= 0 {
		fmt.Fprintf(&b, "&snapshot=%d", q.snapshot)
	}
	return b.String()
}

var measureNames = [...]string{classTopK: "topk", classRWR: "rwr", classPPR: "ppr"}

// genQueries draws count requests for a server with n nodes whose
// retained snapshot ids are snaps (ascending). The draw depends only on
// rng and the arguments: the same seed gives the same requests.
func genQueries(rng *rand.Rand, p queryParams, n int, snaps []int, count int) []queryReq {
	out := make([]queryReq, count)
	if p.hot {
		// The popular sources are themselves drawn from the seed; rank r
		// of the Zipf law maps to pool[r].
		pool := rng.Perm(n)[:min(hotSources, n)]
		zipf := rand.NewZipf(rng, hotZipf, 1, uint64(len(pool)-1))
		recent := snaps[max(0, len(snaps)-hotSnapshots):]
		for i := range out {
			class := classTopK
			if rng.Float64() >= 0.70 {
				class = classRWR
			}
			out[i] = queryReq{class, []int{pool[zipf.Uint64()]}, recent[rng.Intn(len(recent))]}
		}
		return out
	}
	for i := range out {
		q := queryReq{snapshot: snaps[rng.Intn(len(snaps))]}
		switch r := rng.Float64(); {
		case r < 0.60:
			q.class, q.sources = classTopK, []int{rng.Intn(n)}
		case r < 0.85:
			q.class, q.sources = classRWR, []int{rng.Intn(n)}
		default:
			q.class, q.sources = classPPR, rng.Perm(n)[:min(pprSeeds, n)]
		}
		out[i] = q
	}
	return out
}

// queryRun is the client side of one query workload run.
type queryRun struct {
	*run
	p    queryParams
	c    *conn
	n    int
	bufs []bytes.Buffer // one response buffer per worker

	mu         sync.Mutex
	hotBody    map[string]uint64 // key path → hash of its first cache-hit body
	hseed      maphash.Seed
	parsedTopK int
	sampled    []sampledTopK // topk answers kept for the rwr cross-check
}

type sampledTopK struct {
	req queryReq
	ans *answer
}

// firstAnswer issues the set-up query — an rwr from node 0 on the
// latest snapshot — and verifies it; the vector's length is how the
// benchmark learns n.
func firstAnswer(c *conn) (*answer, error) {
	body, err := c.get("/v1/query?measure=rwr&source=0")
	if err != nil {
		return nil, err
	}
	a, err := parseAnswer(body)
	if err != nil {
		return nil, err
	}
	if err := checkVector(a, len(a.Scores), []int{0}); err != nil {
		return nil, err
	}
	return a, nil
}

// retainedSnapshots reads how many snapshots the server retains from
// /v1/stats; with the latest id that gives the addressable range (the
// store keeps the most recent ones).
func retainedSnapshots(c *conn, latest int) ([]int, error) {
	body, err := c.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var st struct {
		Stats struct {
			Retained int `json:"retained_snapshots"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	if st.Stats.Retained < 1 || st.Stats.Retained > latest+1 {
		return nil, fmt.Errorf("/v1/stats: retained_snapshots = %d with latest = %d", st.Stats.Retained, latest)
	}
	snaps := make([]int, st.Stats.Retained)
	for i := range snaps {
		snaps[i] = latest - len(snaps) + 1 + i
	}
	return snaps, nil
}

// exec issues one request, checks the answer, and returns its sample.
func (q *queryRun) exec(worker int, trace int, req queryReq, at arrival, traced bool) sample {
	q.attempt()
	path := req.path()
	ex, err := q.c.do(http.MethodGet, path, nil, &q.bufs[worker], at, traced)
	if err == nil {
		err = ex.statusError()
	}
	if err == nil {
		err = q.verify(req, path, ex.body)
	}
	if err != nil {
		q.fail("%s %s: %v", q.p.name, path, err)
	}
	return finish(ex, req.class, err == nil, q.rec, trace)
}

// verify checks one answer. On query_hot a key's first cache-hit body
// is checked in full and remembered by hash; every later hit must be
// byte-identical to it, which both is the repeated-key check and keeps
// the generator from re-parsing the same 49 KB vector thousands of
// times on the cores it shares with the server.
func (q *queryRun) verify(req queryReq, path string, body []byte) error {
	hit := q.p.hot && bytes.Contains(body, cacheHitTrue)
	var sum uint64
	if hit {
		sum = maphash.Bytes(q.hseed, body)
		q.mu.Lock()
		want, seen := q.hotBody[path]
		q.mu.Unlock()
		if seen {
			if sum != want {
				return fmt.Errorf("cached body differs from the first cached body of this key")
			}
			return nil
		}
	}
	a, err := parseAnswer(body)
	if err != nil {
		return err
	}
	if a.Snapshot != req.snapshot || a.Measure != measureNames[req.class] {
		return fmt.Errorf("answered %s@%d", a.Measure, a.Snapshot)
	}
	if req.class == classTopK {
		if err := checkTopK(a, q.n, topK); err != nil {
			return err
		}
		q.mu.Lock()
		if q.parsedTopK%100 == 0 { // the sampled 1 %
			q.sampled = append(q.sampled, sampledTopK{req, a})
		}
		q.parsedTopK++
		q.mu.Unlock()
	} else if err := checkVector(a, q.n, req.sources); err != nil {
		return err
	}
	if hit {
		q.mu.Lock()
		q.hotBody[path] = sum
		q.mu.Unlock()
	}
	return nil
}

// crossCheck re-derives every sampled topk answer from the full rwr
// vector of the same source and snapshot. It runs after the timed
// phases, so the extra vectors do not disturb them.
func (r *run) crossCheck(c *conn, workload string, sampled []sampledTopK) {
	for _, s := range sampled {
		r.attempt()
		body, err := c.get(queryReq{classRWR, s.req.sources, s.req.snapshot}.path())
		var full *answer
		if err == nil {
			full, err = parseAnswer(body)
		}
		if err == nil {
			err = checkTopKAgainst(s.ans, full)
		}
		if err != nil {
			r.fail("%s cross-check %s: %v", workload, s.req.path(), err)
		}
	}
}

// runQuery runs query_wide or query_hot once.
func runQuery(r *run, p queryParams) error {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Set-up is the paper's LUDEM run: generate the sequence, CLUDE over
	// it, pin the retained snapshots — timed from exec to the first
	// verified answer. At ~15 s on one processor it is taken once per run.
	srv, err := r.h.start(p.name, "-scale", r.serverScale(), "-snapshots", strconv.Itoa(p.snapshots))
	if err != nil {
		return err
	}
	defer srv.kill()
	c := newConn(srv.base, connections)
	defer c.close()
	if err := srv.waitHealthy(ctx, c.http); err != nil {
		return err
	}
	r.attempt()
	first, err := firstAnswer(c)
	if err != nil {
		return fmt.Errorf("%s: first answer: %w", p.name, err)
	}
	r.setEnd("setup_s", time.Since(srv.started).Seconds())

	snaps, err := retainedSnapshots(c, first.Snapshot)
	if err != nil {
		return err
	}
	q := &queryRun{
		run: r, p: p, c: c, n: len(first.Scores),
		bufs:    make([]bytes.Buffer, connections),
		hotBody: map[string]uint64{}, hseed: maphash.MakeSeed(),
	}
	rng := rand.New(rand.NewSource(r.seed))
	closedN, openN := r.scaled(p.closedN), 0
	if r.traced {
		closedN, openN = r.scaled(p.tracedClosedN), r.scaled(p.openN)
	}
	warm := genQueries(rng, p, q.n, snaps, r.scaled(p.warmN))
	closed := genQueries(rng, p, q.n, snaps, closedN)
	open := genQueries(rng, p, q.n, snaps, openN)
	due := poissonDue(rng, openN, p.openRate)

	// Warm-up, untimed: on query_hot every key once per connection so
	// the result cache holds the whole working set; on query_wide a short
	// closed loop so lazy set-up behind the first solves is done.
	if p.hot {
		warm = warm[:0]
		seen := map[string]bool{}
		for _, rq := range append(append([]queryReq{}, closed...), open...) {
			if k := rq.path(); !seen[k] {
				seen[k] = true
				for c := 0; c < connections; c++ {
					warm = append(warm, rq)
				}
			}
		}
	}
	runClosed(connections, len(warm), func(w, i int, at arrival) {
		q.exec(w, -1-i, warm[i], at, false)
	})

	var m0, m1, m2 scrape
	if r.traced {
		if m0, err = c.scrapeMetrics(); err != nil {
			return err
		}
	}

	// Phase A, closed loop: each client sends its next request when the
	// previous answer is verified. On a traced run alternate stretches of
	// traceEvery operations record spans and the others do not; their
	// throughput ratio is the tracing overhead.
	sub := &marks{pid: srv.pid(), chunk: max(closedN/closedWindows, 1)}
	stretch := &marks{chunk: traceEvery}
	samplesA := make([]sample, closedN)
	runClosed(connections, closedN, func(w, i int, at arrival) {
		sub.mark(i)
		stretch.mark(i)
		traced := r.traced && (i/traceEvery)%2 == 1
		samplesA[i] = q.exec(w, i, closed[i], at, traced)
	})
	if closedN%sub.chunk == 0 {
		sub.stamp()
	}
	rate, cpuMS := sub.perWindow()
	okShare := 1 - ratio(float64(summarize(samplesA, 1).failed), float64(closedN))
	r.setEnd("throughput_per_s", median(rate)*okShare)
	r.setEnd("cpu_ms_per_op", median(cpuMS))
	r.say("  %s: n=%d snapshots=%d  closed loop %d ops on %d connection(s), %d sub-windows: ops/s %s  cpu ms/op %s",
		p.name, q.n, len(snaps), closedN, connections, len(rate), fiveNumbers(rate), fiveNumbers(cpuMS))

	// Phase B, traced run only, open loop: Poisson arrivals at a fixed
	// rate, latency timed from the instant each request was due.
	var all latencyStats
	samplesB := make([]sample, openN)
	if r.traced {
		if m1, err = c.scrapeMetrics(); err != nil {
			return err
		}
		runOpen(connections, due, nil, func(w, i int, at arrival) {
			samplesB[i] = q.exec(w, closedN+i, open[i], at, true)
		})
		all = summarize(samplesB, 5)
		r.setLayer("loadgen.query_p50_ms", all.p50)
		r.setLayer("loadgen.query_p95_ms", all.p95)
		if m2, err = c.scrapeMetrics(); err != nil {
			return err
		}
		r.say("  %s: open loop %d ops @ %.0f/s  late p95 %.3f ms  p%g %.3f ms (n=%d)",
			p.name, openN, p.openRate, all.latenessP95, all.tailQ*100, all.tail, all.n)
	}
	r.crossCheck(c, p.name, q.sampled)
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return err
	}
	r.setEnd("peak_rss_mb", rss)

	if !r.traced {
		return nil
	}

	// Per-layer figures: counters over both timed phases, the budget over
	// the open-loop phase whose mean it has to explain.
	whole := &window{from: m0, to: m2}
	openW := &window{from: m1, to: m2}
	r.serveLayer(whole)
	r.runtimeLayer(whole)
	r.loadgenLayer(all, nil)
	b := queryBudget(p.name+" queries (open loop)", all, openW)
	r.budgets = append(r.budgets, b)
	srvMean, _ := openW.histMean("clude_query_latency_seconds", "")
	r.setLayer("api.overhead_topk_ms", summarize(samplesB, 1, classTopK).meanServer-srvMean)
	r.setLayer("api.overhead_rwr_ms", summarize(samplesB, 1, classRWR).meanServer-srvMean)
	r.setLayer("api.response_bytes_mean", all.bytesMean)
	r.setLayer("api.read_ms", all.meanRead)
	stretchRate, _ := stretch.perWindow()
	r.traceOverhead(stretchRate)
	if err := whole.err(); err != nil {
		return err
	}
	return openW.err()
}

// queryStages are the serving pipeline's stages in order.
var queryStages = []string{"resolve", "coalesce", "admit", "batch", "solve"}

// queryBudget explains the client-observed mean latency of a window's
// queries by layer. Stage rows are the stage's summed time over the
// window divided by the answered queries, so a stage most queries skip
// (coalesce, or solve on a cache hit) weighs what it cost on average.
func queryBudget(title string, st latencyStats, w *window) budget {
	srvMean, answered := w.histMean("clude_query_latency_seconds", "")
	rows := []budgetRow{
		{"loadgen", "client.queue: due → request written", st.meanQueue},
		{"api", "client.server − server's own latency: HTTP+JSON", st.meanServer - srvMean},
	}
	for _, stage := range queryStages {
		sum := w.delta(`clude_query_stage_seconds_sum{stage="` + stage + `"}`)
		rows = append(rows, budgetRow{"serve", stage, ratio(sum, answered) * 1e3})
	}
	rows = append(rows,
		budgetRow{"api", "client.read: first byte → end of body", st.meanRead},
		budgetRow{"loadgen", "verify: end of body → checks done", st.meanVerify})
	return newBudget(title, st.mean, rows)
}
