package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Operation classes of ingest_mixed (sample.class).
const (
	classToggle = iota
	classGrowth
	classReadLatest
	classReadHistoric
)

// ingestParams fixes the ingest_mixed workload at the nominal run
// length. Batch counts are chosen so the run ends at a version three
// quarters of the way between two factor snapshots: recovery then always
// replays the same WAL tail.
type ingestParams struct {
	poolEdges     int     // toggle pool, seeded through the API during set-up
	batchEvents   int     // events per POST /v1/update
	growthEvery   int     // every growthEvery-th batch inserts fresh edges
	burstBatches  int     // untraced run: back to back for its whole length
	openBatches   int     // traced run, phase 1: open loop …
	openRate      float64 // … at this many batches per second
	tracedBurst   int     // traced run, phase 2: back to back
	readRate      float64 // reader, open loop, queries per second
	historyWindow int     // historic reads address the last this-many versions
	snapshotEvery int     // -snapshot-every
	setups        int     // set-ups per run; setup_s is their median
}

var ingestMixed = ingestParams{
	poolEdges: 256, batchEvents: 16, growthEvery: 16,
	burstBatches: 960,
	openBatches:  176, openRate: 12, tracedBurst: 240,
	readRate: 50, historyWindow: 64, snapshotEvery: 64,
	setups: 3,
}

// ingestQuick is the -quick smoke's variant; its batch counts are
// written so that quickScale brings them to 32 (burst) and 16 + 16.
var ingestQuick = ingestParams{
	poolEdges: 32, batchEvents: 16, growthEvery: 4,
	burstBatches: 32 / quickScale,
	openBatches:  16 / quickScale, openRate: 30, tracedBurst: 16 / quickScale,
	readRate: 100, historyWindow: 8, snapshotEvery: 8,
	setups: 1,
}

type event struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Op   string `json:"op"`
}

type batch struct {
	class  int
	events []event
}

func (b batch) payload() []byte {
	body, _ := json.Marshal(struct { // a struct of ints and strings cannot fail to marshal
		Events []event `json:"events"`
	}{b.events})
	return body
}

// genEvents draws the whole write stream for a graph of n nodes: the
// batches that seed the toggle pool, then count traffic batches.
//
// Toggle batches flap pool edges: one deletes batchEvents random pool
// edges, the next re-inserts exactly those. A pool edge is therefore
// never absent for longer than one batch, and every edge a toggle batch
// inserts was present when the running cluster's union was last built —
// the factors absorb it as a Bennett update in place. Growth batches
// insert edges the graph has never held, chosen by preferential
// attachment over the generator's own earlier edges (half the targets
// copy the target of a previous edge), which grows the union and forces
// a reorder and refactorization. Nothing here knows the server's graph:
// cludeserve's dataset is fixed by -scale and cannot be seeded.
func genEvents(rng *rand.Rand, n int, p ingestParams, count int) (seed, traffic []batch) {
	type edge [2]int
	used := map[edge]bool{}
	fresh := func(pick func() edge) edge {
		for {
			if e := pick(); e[0] != e[1] && !used[e] {
				used[e] = true
				return e
			}
		}
	}
	uniform := func() edge { return edge{rng.Intn(n), rng.Intn(n)} }

	pool := make([]edge, p.poolEdges)
	for i := range pool {
		pool[i] = fresh(uniform)
	}
	for i := 0; i < len(pool); i += p.batchEvents {
		b := batch{class: classGrowth}
		for _, e := range pool[i:min(i+p.batchEvents, len(pool))] {
			b.events = append(b.events, event{e[0], e[1], "insert"})
		}
		seed = append(seed, b)
	}

	var grown []edge // growth edges so far, the urn of preferential attachment
	var absent []edge
	for i := 0; i < count; i++ {
		if i%p.growthEvery == p.growthEvery-1 {
			b := batch{class: classGrowth}
			for k := 0; k < p.batchEvents; k++ {
				e := fresh(func() edge {
					if len(grown) > 0 && rng.Intn(2) == 0 {
						return edge{rng.Intn(n), grown[rng.Intn(len(grown))][1]}
					}
					return uniform()
				})
				grown = append(grown, e)
				b.events = append(b.events, event{e[0], e[1], "insert"})
			}
			traffic = append(traffic, b)
			continue
		}
		b := batch{class: classToggle}
		if absent == nil {
			for _, k := range rng.Perm(len(pool))[:min(p.batchEvents, len(pool))] {
				absent = append(absent, pool[k])
				b.events = append(b.events, event{pool[k][0], pool[k][1], "delete"})
			}
		} else {
			for _, e := range absent {
				b.events = append(b.events, event{e[0], e[1], "insert"})
			}
			absent = nil
		}
		traffic = append(traffic, b)
	}
	return seed, traffic
}

// readReq is one generated read: a latest-state topk, or (back ≥ 0) a
// topk on the version `back` versions behind the newest acknowledged one.
type readReq struct {
	source int
	back   int // -1 = latest state
}

func genReads(rng *rand.Rand, n int, p ingestParams, count int) []readReq {
	out := make([]readReq, count)
	for i := range out {
		out[i] = readReq{source: rng.Intn(n), back: -1}
		if rng.Float64() >= 0.70 {
			out[i].back = rng.Intn(p.historyWindow)
		}
	}
	return out
}

// ingestRun is the client side of one ingest_mixed run.
type ingestRun struct {
	*run
	p       ingestParams
	n       int
	writer  *conn // one connection: every update, in order
	reader  *conn // one connection: every query
	wbuf    bytes.Buffer
	rbuf    bytes.Buffer
	acked   atomic.Uint64 // newest version a sync update has acknowledged
	sampled []sampledTopK
}

func (g *ingestRun) streamArgs(dataDir string) []string {
	return []string{"-stream", "-scale", g.serverScale(), "-alg", "CLUDE", "-batch", "64", "-flush-ms", "200",
		"-history-base", "16", "-data-dir", dataDir, "-fsync", "always",
		"-snapshot-every", fmt.Sprint(g.p.snapshotEvery)}
}

// update posts one batch with ?sync=1 and checks the acknowledgment: all
// events queued, and exactly one new version — the single writer's
// batches and the stream's versions advance in lockstep.
func (g *ingestRun) update(trace int, b batch, at arrival, traced bool) sample {
	g.attempt()
	ex, err := g.writer.do(http.MethodPost, "/v1/update?sync=1", b.payload(), &g.wbuf, at, traced)
	if err == nil {
		err = ex.statusError()
	}
	if err == nil {
		var ack struct {
			Queued  int    `json:"queued"`
			Version uint64 `json:"version"`
		}
		if err = json.Unmarshal(ex.body, &ack); err == nil {
			if want := g.acked.Load() + 1; ack.Queued != len(b.events) || ack.Version != want {
				err = fmt.Errorf("ack queued=%d version=%d, want queued=%d version=%d", ack.Queued, ack.Version, len(b.events), want)
			} else {
				g.acked.Store(ack.Version)
			}
		}
	}
	if err != nil {
		g.fail("ingest_mixed update: %v", err)
	}
	return finish(ex, b.class, err == nil, g.rec, trace)
}

// read issues one query and checks it. A latest-state answer must be at
// least as new as the newest version acknowledged before the request
// left: a sync ack means queryable.
func (g *ingestRun) read(trace int, rq readReq, at arrival, traced bool) sample {
	g.attempt()
	acked := int(g.acked.Load())
	req := queryReq{class: classTopK, sources: []int{rq.source}, snapshot: -1}
	class := classReadLatest
	if rq.back >= 0 {
		class = classReadHistoric
		req.snapshot = max(acked-rq.back, 0)
	}
	ex, err := g.reader.do(http.MethodGet, req.path(), nil, &g.rbuf, at, traced)
	if err == nil {
		err = ex.statusError()
	}
	if err == nil {
		var a *answer
		if a, err = parseAnswer(ex.body); err == nil {
			err = checkTopK(a, g.n, topK)
		}
		switch {
		case err != nil:
		case class == classReadLatest && (!a.Live || a.Snapshot < acked):
			err = fmt.Errorf("latest-state answer live=%v snapshot=%d after an ack of version %d", a.Live, a.Snapshot, acked)
		case class == classReadHistoric && a.Snapshot != req.snapshot:
			err = fmt.Errorf("answered snapshot %d", a.Snapshot)
		case class == classReadHistoric && trace%30 == 0:
			// Historic answers can be re-derived later; latest-state
			// ones cannot, the state has moved on. Only the reader
			// goroutine appends here.
			g.sampled = append(g.sampled, sampledTopK{req, a})
		}
	}
	if err != nil {
		g.fail("ingest_mixed %s: %v", req.path(), err)
	}
	return finish(ex, class, err == nil, g.rec, trace)
}

// setUp boots a streaming server on an empty data-dir, learns n from a
// first answer, seeds the toggle pool through the API and waits for a
// verified latest-state answer that reflects the seeding. It returns the
// server and the seconds from exec to that answer.
func (g *ingestRun) setUp(ctx context.Context, name, dataDir string, seedFor func(n int) []batch) (*server, float64, error) {
	srv, err := g.h.start(name, g.streamArgs(dataDir)...)
	if err != nil {
		return nil, 0, err
	}
	g.writer, g.reader = newConn(srv.base, connections), newConn(srv.base, connections)
	if err := srv.waitHealthy(ctx, g.writer.http); err != nil {
		return nil, 0, err
	}
	g.acked.Store(0)
	for pass := 0; pass < 2; pass++ {
		g.attempt()
		a, err := firstAnswer(g.reader)
		if err == nil && (!a.Live || a.Snapshot != int(g.acked.Load())) {
			err = fmt.Errorf("live=%v snapshot=%d after acks up to version %d", a.Live, a.Snapshot, g.acked.Load())
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ingest_mixed: set-up answer: %w", err)
		}
		if pass == 1 {
			break
		}
		g.n = len(a.Scores)
		for i, b := range seedFor(g.n) {
			if s := g.update(-1-i, b, now(), false); !s.ok {
				return nil, 0, fmt.Errorf("ingest_mixed: seeding the toggle pool failed (see failures)")
			}
		}
	}
	return srv, time.Since(srv.started).Seconds(), nil
}

// probePaths are the recovery probe set: the latest state and eight
// historic versions spread between the newest factor snapshot and the
// crash, all of them rebuilt from the WAL tail. (Versions older than
// that snapshot are not answerable after a crash: their base factors
// lived only in memory. README.md lists this among the sizing facts.)
func probePaths(snapshot, version int) []string {
	paths := []string{"/v1/query?measure=rwr&source=1"}
	for k := 1; k <= 8; k++ {
		v := snapshot + (version-snapshot)*k/9
		paths = append(paths, fmt.Sprintf("/v1/query?measure=rwr&source=%d&snapshot=%d", 1+k, v))
	}
	return paths
}

func runIngest(r *run) error {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	p := ingestMixed
	if r.quick {
		p = ingestQuick
	}
	g := &ingestRun{run: r, p: p}

	// The write stream is drawn once n, the dataset's node count, is
	// known from the first set-up's first answer.
	rng := rand.New(rand.NewSource(r.seed))
	openN, burstN := 0, r.scaled(p.burstBatches)
	if r.traced {
		openN, burstN = r.scaled(p.openBatches), r.scaled(p.tracedBurst)
	}
	seedBatches := (p.poolEdges + p.batchEvents - 1) / p.batchEvents
	// End three quarters of the way to the next factor snapshot, so the
	// WAL tail recovery replays is the same length on every run.
	total := seedBatches + openN + burstN
	burstN += ((3*p.snapshotEvery/4-total)%p.snapshotEvery + p.snapshotEvery) % p.snapshotEvery
	total = seedBatches + openN + burstN

	// Set-up, several times: exec on an empty data-dir → pool seeded →
	// first verified answer. The last server stays up for the run.
	var srv *server
	var setups []float64
	var dataDir string
	var seed, traffic []batch
	seedFor := func(n int) []batch {
		if seed == nil {
			seed, traffic = genEvents(rng, n, p, openN+burstN)
		}
		return seed
	}
	for k := 0; k < p.setups; k++ {
		if srv != nil {
			srv.kill()
			g.writer.close()
			g.reader.close()
		}
		var s float64
		var err error
		if dataDir, err = os.MkdirTemp(r.h.work, "ingest-data-"); err != nil {
			return err
		}
		if srv, s, err = g.setUp(ctx, fmt.Sprintf("ingest_mixed-%d", k), dataDir, seedFor); err != nil {
			return err
		}
		setups = append(setups, s)
	}
	defer srv.kill()
	defer func() { g.writer.close(); g.reader.close() }()
	r.setEnd("setup_s", median(setups))
	return g.measure(ctx, rng, srv, dataDir, traffic, openN, burstN, total)
}

// measure drives the timed part of the run against an already set-up
// server: the open-loop phase, the burst, the probe set, the crash and
// the recovery.
func (g *ingestRun) measure(ctx context.Context, rng *rand.Rand, srv *server, dataDir string, traffic []batch, openN, burstN, total int) error {
	r, p := g.run, g.p
	// The reader's schedule is drawn long enough to outlast both phases;
	// it stops when the writer is done.
	readN := int(p.readRate * (float64(openN)/p.openRate*2 + 60))
	reads := genReads(rng, g.n, p, readN)
	readDue := poissonDue(rng, readN, p.readRate)
	writeDue := poissonDue(rng, openN, p.openRate)

	var m0, m1, m2 scrape
	var err error
	if m0, err = g.reader.scrapeMetrics(); err != nil {
		return err
	}

	readSamples := make([]sample, readN)
	var readDone atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runOpen(1, readDue, stop, func(_, i int, at arrival) {
			readSamples[i] = g.read(i, reads[i], at, r.traced)
			readDone.Store(int64(i + 1))
		})
	}()

	// Phase 1, open loop: batches arrive at a fixed rate on the single
	// writer connection; a slow batch delays the ones due behind it, and
	// their latency says so because it is timed from the due instant.
	writes := make([]sample, openN+burstN)
	runOpen(1, writeDue, nil, func(_, i int, at arrival) {
		writes[i] = g.update(readN+i, traffic[i], at, r.traced)
	})
	phase1Reads := int(readDone.Load())
	if r.traced {
		if m1, err = g.writer.scrapeMetrics(); err != nil {
			return err
		}
	}

	// Phase 2, burst: back to back, the reader still running. A
	// sub-window is one growth period — growthEvery batches, the last of
	// them a growth batch — so each holds the same mix.
	chunk := p.growthEvery
	sub := &marks{pid: srv.pid(), chunk: chunk, beside: &readDone}
	runClosed(1, burstN, func(_, i int, at arrival) {
		sub.mark(i)
		// Tracing flips with each growth period, so both states see the
		// same mix of batches and the same drift in their cost.
		traced := r.traced && (i/p.growthEvery)%2 == 1
		writes[openN+i] = g.update(readN+openN+i, traffic[openN+i], at, traced)
	})
	if burstN%chunk == 0 {
		sub.stamp()
	}
	close(stop)
	wg.Wait()
	readSamples = readSamples[:readDone.Load()]
	if m2, err = g.reader.scrapeMetrics(); err != nil {
		return err
	}

	upd := summarize(writes[:openN], 1)
	burst := summarize(writes[openN:], 1)
	rd := summarize(readSamples[:phase1Reads], 5)
	// The gated median is over latest-state reads: is the fresh answer
	// fast beside the writes. Historic reads pay for materialization and
	// sit on the other side of the median of the mix, which made the
	// mixed median flip between the two classes from run to run.
	latest := summarize(readSamples[:phase1Reads], 5, classReadLatest)
	allReads := summarize(readSamples, 1)
	batchRate, cpuMS := sub.perWindow()
	okShare := 1 - ratio(float64(burst.failed), float64(burstN))
	r.setEnd("throughput_per_s", median(batchRate)*float64(p.batchEvents)*okShare)
	r.setLayer("loadgen.query_p50_ms", latest.p50)
	r.setLayer("loadgen.query_p95_ms", rd.p95)
	r.setEnd("cpu_ms_per_op", median(cpuMS))
	r.say("  ingest_mixed: burst of %d batches, %d growth periods: batches/s %s  cpu ms/op %s",
		burstN, len(batchRate), fiveNumbers(batchRate), fiveNumbers(cpuMS))

	// The sampled historic topk answers against their full vectors.
	r.crossCheck(g.reader, "ingest_mixed", g.sampled)

	rec, err := g.crashAndRecover(ctx, srv, dataDir, total)
	if err != nil {
		return err
	}

	r.say("  ingest_mixed: n=%d  open %d batches @ %.0f/s + burst %d  reads %d @ %.0f/s  versions %d  writer late p95 %.3f ms  reader late p95 %.3f ms",
		g.n, openN, p.openRate, burstN, allReads.n, p.readRate, total, upd.latenessP95, rd.latenessP95)

	// The demoted end-to-end figures of the issue: reported on every run,
	// gated by none (see README: the contract wants one metric list for
	// all workloads).
	r.setLayer("update_p50_ms", upd.p50)
	r.setLayer("update_p95_ms", upd.p95)
	r.setLayer("recover_s", rec.seconds)
	r.setLayer("store.replayed_batches", rec.replayed)
	r.setLayer("store.recovered_from_version", rec.fromVersion)
	r.setLayer("store.disk_bytes_per_version", rec.diskPerVersion)
	whole := &window{from: m0, to: m2}
	r.coreLayer(whole, writes[:openN])
	r.storeLayer(whole)
	if !r.traced {
		return whole.err()
	}

	phase1 := &window{from: m0, to: m1}
	r.serveLayer(whole)
	r.runtimeLayer(whole)
	r.loadgenLayer(rd, &upd)
	r.budgets = append(r.budgets,
		updateBudget("ingest_mixed updates (open loop)", upd, phase1),
		queryBudget("ingest_mixed reads beside them (open loop)", rd, phase1))
	stagesMean := 0.0
	for _, stage := range ingestStages {
		m, _ := phase1.histMean("clude_ingest_stage_seconds", `{stage="`+stage+`"}`)
		stagesMean += m
	}
	r.setLayer("api.overhead_update_ms", upd.meanServer-stagesMean)
	srvMean, _ := phase1.histMean("clude_query_latency_seconds", "")
	r.setLayer("api.overhead_topk_ms", rd.meanServer-srvMean)
	r.setLayer("api.response_bytes_mean", rd.bytesMean)
	r.setLayer("api.read_ms", rd.meanRead)
	// Tracing overhead from the burst's toggle batches, which are alike
	// and plentiful: the growth batches' cost depends on the edges drawn.
	var on, off []float64
	for _, s := range writes[openN:] {
		switch {
		case !s.ok || s.class != classToggle:
		case s.traced:
			on = append(on, s.latency)
		default:
			off = append(off, s.latency)
		}
	}
	r.setLayer("trace.overhead_frac", 1-ratio(median(off), median(on)))
	if err := whole.err(); err != nil {
		return err
	}
	return phase1.err()
}

// ingestStages are the ingest pipeline's stages in order.
var ingestStages = []string{"validate", "log", "apply", "publish"}

// updateBudget explains the mean sync-ack latency of a window's updates.
func updateBudget(title string, st latencyStats, w *window) budget {
	rows := []budgetRow{{"loadgen", "client.queue: due → request written", st.meanQueue}}
	api := budgetRow{"api", "client.server − Σ ingest stages: HTTP+JSON+batcher", st.meanServer}
	var stages []budgetRow
	for _, stage := range ingestStages {
		m, _ := w.histMean("clude_ingest_stage_seconds", `{stage="`+stage+`"}`)
		api.MS -= m
		stages = append(stages, budgetRow{"core", stage, m})
	}
	rows = append(append(rows, api), stages...)
	rows = append(rows,
		budgetRow{"api", "client.read: first byte → end of body", st.meanRead},
		budgetRow{"loadgen", "verify: end of body → checks done", st.meanVerify})
	return newBudget(title, st.mean, rows)
}

type recovery struct {
	seconds, replayed, fromVersion, diskPerVersion float64
}

// crashAndRecover waits for the run's last factor snapshot, records the
// probe set, kills the server with SIGKILL,
// restarts it on the same data-dir and times exec → every probe answered
// byte-identically. (SIGKILL leaves the page cache intact, so this is
// process-crash recovery, not power-loss recovery.)
func (g *ingestRun) crashAndRecover(ctx context.Context, srv *server, dataDir string, total int) (recovery, error) {
	var rec recovery
	// The server snapshots in the background every snapshotEvery
	// published versions, at whatever version is current when the
	// snapshotter gets the read lock — the trigger version or, rarely,
	// one later. Anything within the last period is the final one.
	var snapVersion int
	for {
		m, err := g.reader.scrapeMetrics()
		if err != nil {
			return rec, err
		}
		snapVersion = int(m["clude_store_last_snapshot_version"])
		if snapVersion >= total-g.p.snapshotEvery-1 {
			break
		}
		select {
		case <-ctx.Done():
			return rec, fmt.Errorf("ingest_mixed: no factor snapshot in the last %d versions (newest: %d of %d)", g.p.snapshotEvery, snapVersion, total)
		case <-time.After(20 * time.Millisecond):
		}
	}
	paths := probePaths(snapVersion, total)
	before := make([][]byte, len(paths))
	for i, path := range paths {
		g.attempt()
		body, err := g.reader.get(path)
		if err != nil {
			g.fail("ingest_mixed probe %s: %v", path, err)
		}
		before[i] = append([]byte(nil), body...)
	}
	rss, err := procPeakRSS(srv.pid())
	if err != nil {
		return rec, err
	}
	g.setEnd("peak_rss_mb", rss)
	disk, err := dirBytes(dataDir)
	if err != nil {
		return rec, err
	}
	rec.diskPerVersion = float64(disk) / float64(total)

	srv.kill()
	g.writer.close()
	g.reader.close()
	again, err := g.h.start("ingest_mixed-recovered", g.streamArgs(dataDir)...)
	if err != nil {
		return rec, err
	}
	defer again.kill()
	c := newConn(again.base, connections)
	defer c.close()
	if err := again.waitHealthy(ctx, c.http); err != nil {
		return rec, err
	}
	for i, path := range paths {
		g.attempt()
		body, err := c.get(path)
		if err == nil && !sameAnswerBytes(before[i], body) {
			err = fmt.Errorf("answer differs from the one given before the crash")
		}
		if err != nil {
			g.fail("ingest_mixed recovery probe %s: %v", path, err)
		}
	}
	rec.seconds = time.Since(again.started).Seconds()
	m, err := c.scrapeMetrics()
	if err != nil {
		return rec, err
	}
	rec.replayed = m["clude_store_replayed_batches"]
	rec.fromVersion = float64(total) - rec.replayed
	g.attempt()
	if v := m["clude_stream_version"]; v != float64(total) || m["clude_store_recovered"] != 1 || int(rec.fromVersion) != snapVersion {
		g.fail("ingest_mixed: recovered at version %.0f from %.0f (recovered=%.0f), want %d from %d",
			v, rec.fromVersion, m["clude_store_recovered"], total, snapVersion)
	}
	return rec, nil
}
