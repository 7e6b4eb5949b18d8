package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP exchange, so a wedged server fails
// operations instead of hanging the run.
const requestTimeout = 20 * time.Second

// conn is one load-generating role's HTTP client: a pool of at most
// `conns` keep-alive connections to one server. The benchmark never
// opens more connections in total than the box has processors, so the
// generator cannot out-schedule the server it measures.
type conn struct {
	http *http.Client
	base string
}

func newConn(base string, conns int) *conn {
	return &conn{base: base, http: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// exchange is the client-side record of one request: when it was due,
// when each boundary was crossed, and what came back. The boundary
// stamps between sent and eof exist only on traced exchanges.
type exchange struct {
	due, woke, sent, wrote, firstByte, eof time.Time
	status                                 int
	body                                   []byte // valid until the next exchange on the same buffer
}

// arrival is when an operation was due and when the generator woke for
// it; in a closed loop both are the moment the worker became free.
type arrival struct{ due, woke time.Time }

func now() arrival { t := time.Now(); return arrival{t, t} }

// do issues one request and reads the whole response into buf. With
// traced set it stamps the request-written and first-response-byte
// boundaries through net/http/httptrace.
func (c *conn) do(method, path string, payload []byte, buf *bytes.Buffer, at arrival, traced bool) (exchange, error) {
	ex := exchange{due: at.due, woke: at.woke}
	ctx := context.Background()
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { ex.wrote = time.Now() },
			GotFirstResponseByte: func() { ex.firstByte = time.Now() },
		})
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return ex, err
	}
	ex.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return ex, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ex.eof = time.Now()
	if err != nil {
		return ex, fmt.Errorf("read %s: %w", path, err)
	}
	ex.status, ex.body = resp.StatusCode, buf.Bytes()
	return ex, nil
}

// statusError is nil for a 200 and otherwise quotes the error envelope.
func (ex exchange) statusError() error {
	if ex.status == http.StatusOK {
		return nil
	}
	return fmt.Errorf("status %d: %s", ex.status, bytes.TrimSpace(ex.body))
}

// get is an untimed, unpaced GET for set-up, scrapes and probes.
func (c *conn) get(path string) ([]byte, error) {
	var buf bytes.Buffer
	ex, err := c.do(http.MethodGet, path, nil, &buf, now(), false)
	if err == nil {
		err = ex.statusError()
	}
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return ex.body, nil
}

// scrapeMetrics fetches and parses GET /v1/metrics.
func (c *conn) scrapeMetrics() (scrape, error) {
	body, err := c.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// sample is one finished operation. Durations are milliseconds. The
// per-boundary fields are zero on untraced operations.
type sample struct {
	class    int     // index into the workload's class table
	ok       bool    // transport, status and every answer check passed
	latency  float64 // due → verified; what a user waits
	lateness float64 // due → generator awake; how late the generator ran
	connWait float64 // generator awake → a connection free to send on
	queue    float64 // due → request written
	server   float64 // request written → first response byte
	read     float64 // first byte → end of body
	verify   float64 // end of body → checks done
	bytes    int
	traced   bool
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish turns a completed exchange into a sample and, on a traced run,
// into the request's span tree: client.request (due → verified) over
// client.queue, client.server and client.read.
func finish(ex exchange, class int, ok bool, rec *recorder, trace int) sample {
	done := time.Now()
	s := sample{
		class: class, ok: ok,
		latency:  ms(done.Sub(ex.due)),
		lateness: ms(ex.woke.Sub(ex.due)),
		connWait: ms(ex.sent.Sub(ex.woke)),
		bytes:    len(ex.body),
	}
	if ex.wrote.IsZero() || ex.firstByte.IsZero() {
		return s
	}
	s.traced = true
	s.queue = ms(ex.wrote.Sub(ex.due))
	s.server = ms(ex.firstByte.Sub(ex.wrote))
	s.read = ms(ex.eof.Sub(ex.firstByte))
	s.verify = ms(done.Sub(ex.eof))
	root := rec.add(trace, 0, "client.request", ex.due, done)
	rec.add(trace, root, "client.queue", ex.due, ex.wrote)
	rec.add(trace, root, "client.server", ex.wrote, ex.firstByte)
	rec.add(trace, root, "client.read", ex.firstByte, ex.eof)
	return s
}

// poissonDue draws n arrival offsets of a Poisson process with the
// given rate per second: independent users, not a metronome.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runClosed executes operations 0..n-1 in a closed loop: `workers`
// goroutines each take the next index as soon as their previous
// operation completes, so `workers` operations are always in flight and
// a slow system receives less load.
func runClosed(workers, n int, op func(worker, i int, at arrival)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				op(w, i, now())
			}
		}(w)
	}
	wg.Wait()
}

// runOpen executes operations in an open loop: a dispatcher wakes at
// start+due[i] and queues operation i whatever happened to the earlier
// ones; `workers` goroutines, one per connection, take queued operations
// in order. The operation is told when it was due and when the
// dispatcher woke for it: woke−due is how late the generator ran, and
// the time from woke until a worker picks the operation up is the wait
// for a free connection. Both are part of the latency, which is timed
// from the due instant. stop, when non-nil, ends the schedule early once
// it is closed; operations already queued still run.
func runOpen(workers int, due []time.Duration, stop <-chan struct{}, op func(worker, i int, at arrival)) {
	type ticket struct {
		i  int
		at arrival
	}
	queue := make(chan ticket, len(due)) // never blocks the dispatcher: holds the whole schedule
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range queue {
				op(w, t.i, t.at)
			}
		}(w)
	}
	start := time.Now()
dispatch:
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			preciseSleep(wait)
		}
		select {
		case <-stop:
			break dispatch
		default:
		}
		queue <- ticket{i, arrival{due: at, woke: time.Now()}}
	}
	close(queue)
	wg.Wait()
}

// marks stamps the clock — and, given a pid, the child's CPU clock — at
// chunk boundaries of a fixed-count phase, so throughput and CPU per
// operation can be taken per sub-window and reported as medians.
type marks struct {
	pid    int           // 0 = wall clock only
	chunk  int           // marked operations per sub-window
	beside *atomic.Int64 // running count of operations another role completes meanwhile; they share the CPU figure
	mu     sync.Mutex
	at     []time.Time
	cpu    []time.Duration
	others []int64
}

// mark is called by the worker issuing operation i; it stamps a
// boundary when i opens a new chunk.
func (m *marks) mark(i int) {
	if i%m.chunk == 0 {
		m.stamp()
	}
}

func (m *marks) stamp() {
	var cpu time.Duration
	if m.pid != 0 {
		var err error
		if cpu, err = procCPU(m.pid); err != nil {
			return // the child is gone; the operations around this mark fail and say so
		}
	}
	var others int64
	if m.beside != nil {
		others = m.beside.Load()
	}
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.cpu = append(m.cpu, cpu)
	m.others = append(m.others, others)
	m.mu.Unlock()
}

// perWindow returns, for each full chunk, marked operations per second
// and child CPU milliseconds per operation, marked or beside.
func (m *marks) perWindow() (rate, cpuMS []float64) {
	for k := 1; k < len(m.at); k++ {
		dt := m.at[k].Sub(m.at[k-1]).Seconds()
		if dt <= 0 {
			continue
		}
		rate = append(rate, float64(m.chunk)/dt)
		cpuMS = append(cpuMS, ms(m.cpu[k]-m.cpu[k-1])/float64(int64(m.chunk)+m.others[k]-m.others[k-1]))
	}
	return rate, cpuMS
}

// latencyStats are the figures reported for one class of operations.
type latencyStats struct {
	n, failed     int
	p50, p95      float64 // medians over sub-windows
	tail          float64 // the highest percentile with ≥10 samples beyond it
	tailQ         float64
	mean          float64
	latenessP95   float64
	connWaitMean  float64
	bytesMean     float64
	meanQueue     float64
	meanServer    float64
	meanRead      float64
	meanVerify    float64
	tracedSamples int
}

// summarize reduces the samples of the classes in `classes` (nil = all).
// A failed or refused operation has no latency a user would accept: it
// enters the percentiles as +Inf would, by counting as slower than
// every success (represented by the phase's slowest success ×10 so the
// figures stay finite and visibly wrong).
func summarize(samples []sample, windows int, classes ...int) latencyStats {
	want := func(c int) bool {
		if len(classes) == 0 {
			return true
		}
		for _, k := range classes {
			if k == c {
				return true
			}
		}
		return false
	}
	var st latencyStats
	var lat, late []float64
	worst := 0.0
	for _, s := range samples {
		if want(s.class) && s.ok {
			worst = max(worst, s.latency)
		}
	}
	for _, s := range samples {
		if !want(s.class) {
			continue
		}
		st.n++
		if !s.ok {
			st.failed++
			lat = append(lat, worst*10)
			continue
		}
		lat = append(lat, s.latency)
		late = append(late, s.lateness)
		st.bytesMean += float64(s.bytes)
		st.connWaitMean += s.connWait
		if s.traced {
			st.tracedSamples++
			st.meanQueue += s.queue
			st.meanServer += s.server
			st.meanRead += s.read
			st.meanVerify += s.verify
		}
	}
	if len(lat) == 0 {
		return st
	}
	st.mean = mean(lat)
	st.p50 = windowPercentile(lat, windows, 0.50)
	st.p95 = windowPercentile(lat, windows, 0.95)
	st.tailQ = highestSupported(len(lat))
	st.tail = percentile(lat, st.tailQ)
	st.latenessP95 = percentile(late, 0.95)
	okN := float64(st.n - st.failed)
	st.bytesMean = ratio(st.bytesMean, okN)
	st.connWaitMean = ratio(st.connWaitMean, okN)
	t := float64(st.tracedSamples)
	st.meanQueue = ratio(st.meanQueue, t)
	st.meanServer = ratio(st.meanServer, t)
	st.meanRead = ratio(st.meanRead, t)
	st.meanVerify = ratio(st.meanVerify, t)
	return st
}
