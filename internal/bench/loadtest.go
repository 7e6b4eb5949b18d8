package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lu"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// LoadTest benchmarks the admission-controlled serving pipeline under
// load (see docs/SERVING.md) in its one production configuration — the
// zero serve.Config every cludeserve runs: coalescing on, a worker
// gather of up to 8, and lu.Solver.SolveRHS picking every solve route.
// Client behavior is open-loop: arrivals are paced by a clock, not by
// completions, so overload shows up as queue pressure and shedding
// instead of silently slowing the clients down. Five tables:
//
//  1. A *stampede* — hot keys arrive in bursts of duplicates at ~4x
//     the closed-loop capacity, the thundering-herd shape of trending
//     queries and expiring cache entries. Under backlog a burst is
//     fully in flight before its first solve lands in the cache;
//     single-flight collapses each burst to one solve ("coalesced" vs
//     "cold solves"), and the "blocks" / "panel blocks" columns show
//     the backlog forming multi-RHS groups and how they were routed.
//  2. A *distinct* overload — no duplicates, all against the hottest
//     snapshot, ~2x capacity — where coalescing has nothing to do and
//     the backlog is absorbed by blocked solves alone.
//  3. An *overload sweep* from 0.25x to 2x capacity: below capacity
//     nothing sheds; at 2x the excess is shed promptly (ErrOverloaded)
//     while the p99 of answered queries stays bounded by the queue
//     instead of the backlog.
//  4. A *tracing overhead* A/B at 2x capacity: the request tracer off
//     vs on at production settings (20ms slow threshold, 1% sampling).
//     Pooled spans, inline attributes and clock-read sharing keep the
//     marginal cost ~0.3 us per query — within a 2% answered-throughput
//     delta once client-side tracing work overlaps with the solve
//     worker (>= 2 cores); single-core hosts measure the full tracing
//     share of CPU instead.
//  5. A *stage breakdown* of the 2x run from the engine's per-stage
//     histograms (serve.Stats.QueryStages, the same data /v1/metrics
//     exposes): where a query's time goes across
//     resolve/coalesce/admit/batch/solve under saturation.
//
// The multiples that justified each pipeline stage when it landed
// (coalescing and blocking over the unbatched engine, panels over the
// scalar block) were one-off A/B proofs; they stay recorded in
// CHANGES.md and docs/SERVING.md, and the kernels' own crossovers are
// re-measured by the sparsesolve and supernodal experiments.
func LoadTest(d Datasets) ([]*Table, error) {
	_, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	solvers := make([]*lu.Solver, ems.Len())
	if _, err := core.Run(ems, core.CLUDE, core.Options{
		Workers:       d.Workers,
		Alpha:         0.95,
		RetainFactors: true,
		OnFactors:     func(i int, s *lu.Solver) { solvers[i] = s },
	}); err != nil {
		return nil, err
	}

	workers := minInt(4, runtime.GOMAXPROCS(0))
	lt := &loadTester{
		solvers: solvers,
		damping: d.Damping,
		T:       ems.Len(),
		n:       ems.N(),
		workers: workers,
	}

	// Calibrate capacity: closed-loop saturation with unique queries
	// measures the sustainable solve throughput.
	capRes, err := lt.closedLoop(2*workers, 400)
	if err != nil {
		return nil, err
	}
	capacity := capRes.qps()

	burst := 8
	stampede := &Table{
		Title: fmt.Sprintf("Stampede: bursts of %d duplicate queries offered at 4x capacity (~%s qps, Wiki n=%d T=%d, workers=%d)",
			burst, f(capacity), ems.N(), ems.Len(), workers),
		Header: []string{"config", "offered qps", "goodput/core", "shed frac", "ans p50", "ans p99", "coalesced", "blocks", "panel blocks", "cold solves"},
	}
	r, err := lt.openLoadReps(nil, 4*capacity, burst, -1, 2)
	if err != nil {
		return nil, err
	}
	stampede.Rows = append(stampede.Rows, r.cells("production", workers))

	distinct := &Table{
		Title:  "Distinct overload: unique hottest-snapshot queries offered at 2x capacity (nothing to coalesce; the backlog solves in blocks)",
		Header: stampede.Header,
	}
	if r, err = lt.openLoadReps(nil, 2*capacity, 1, lt.T-1, 3); err != nil {
		return nil, err
	}
	distinct.Rows = append(distinct.Rows, r.cells("production", workers))

	sweep := &Table{
		Title:  "Overload sweep (full pipeline): excess load sheds fast and answered latency stays queue-bounded",
		Header: []string{"offered/capacity", "offered qps", "goodput qps", "shed frac", "ans p95", "shed p99"},
	}
	var last *openResult
	for _, frac := range []float64{0.25, 0.5, 2.0} {
		r, err := lt.openLoad(nil, frac*capacity, 1, -1)
		if err != nil {
			return nil, err
		}
		last = r
		sweep.Rows = append(sweep.Rows, []string{
			fmt.Sprintf("%.2fx", frac),
			f(r.offeredQPS()),
			f(r.goodputQPS()),
			f(r.shedFrac()),
			durUS(pctl(r.ansLat, 0.95)),
			durUS(pctl(r.shedLat, 0.99)),
		})
	}

	// Tracing overhead: the same 2x full-pipeline overload with the
	// request tracer off vs on at production settings (slow threshold
	// 20ms, 1% sampling). The tracer shares every clock read serve
	// already takes for its stage histograms, spans live in a pooled
	// arena, and attributes occupy inline slots, so the marginal cost
	// is ~0.3 us per query (see the trace package). On hosts with two
	// or more cores the client-side share of that overlaps with the
	// solve worker and the answered-throughput delta stays within the
	// 2% design bound; on a single-core host the entire cost shares
	// the solve core, so the open-loop delta degrades to roughly the
	// tracing share of total CPU and the measurement is dominated by
	// scheduler noise.
	overhead := &Table{
		Title:  "Tracing overhead at 2.0x overload (slow=20ms, sample=1%; design bound: answered-throughput delta within 2% with >=2 cores)",
		Header: []string{"config", "offered qps", "goodput qps", "shed frac", "ans p50", "ans p99", "traces retained", "goodput delta"},
	}
	// A/B reps interleave (off, on, off, on, ...): heap growth, GC
	// cadence and CPU clocking drift over a process's life, and
	// running all "off" reps before all "on" reps would bill that
	// drift to tracing. The reported delta is the median of the
	// per-pair deltas rather than the pooled ratio: on shared runners
	// a single CPU-steal burst can halve one rep's goodput, and a
	// median over adjacent pairs discards that outlier where a pooled
	// total would absorb it.
	tc := trace.New(trace.Config{Buffer: 1024, Slow: 20 * time.Millisecond, Sample: 0.01})
	var offRun, onRun *openResult
	var pairDeltas []float64
	for rep := 0; rep < 5; rep++ {
		off, err := lt.openLoad(nil, 2*capacity, 1, -1)
		if err != nil {
			return nil, err
		}
		on, err := lt.openLoad(tc, 2*capacity, 1, -1)
		if err != nil {
			return nil, err
		}
		pairDeltas = append(pairDeltas, on.goodputQPS()/off.goodputQPS()-1)
		offRun = poolRuns(offRun, off)
		onRun = poolRuns(onRun, on)
	}
	sortLats(offRun)
	sortLats(onRun)
	overheadRow := func(name string, r *openResult, retained, delta string) []string {
		return []string{
			name, f(r.offeredQPS()), f(r.goodputQPS()), f(r.shedFrac()),
			durUS(pctl(r.ansLat, 0.50)), durUS(pctl(r.ansLat, 0.99)),
			retained, delta,
		}
	}
	sort.Float64s(pairDeltas)
	delta := pairDeltas[len(pairDeltas)/2]
	overhead.Rows = append(overhead.Rows,
		overheadRow("tracing off", offRun, "0", "-"),
		overheadRow("tracing on", onRun, fmt.Sprint(tc.Stats().Retained), fmt.Sprintf("%+.2f%%", 100*delta)),
	)

	// Where the time goes: the engine's own stage histograms (the same
	// ones /v1/metrics exposes as clude_query_stage_seconds) over the
	// final 2x-overload run — under shedding, admit wait should
	// dominate while resolve and batch stay negligible.
	stages := &Table{
		Title:  "Pipeline stages of the 2.0x run (engine-side histograms; quantiles are log2-bucket upper bounds)",
		Header: []string{"stage", "count", "p50", "p95", "p99"},
	}
	for _, name := range []string{"resolve", "coalesce", "admit", "batch", "solve"} {
		sl, ok := last.st.QueryStages[name]
		if !ok {
			continue
		}
		stages.Rows = append(stages.Rows, []string{
			name,
			fmt.Sprint(sl.Count),
			durUS(time.Duration(sl.P50us * 1e3)),
			durUS(time.Duration(sl.P95us * 1e3)),
			durUS(time.Duration(sl.P99us * 1e3)),
		})
	}

	return []*Table{stampede, distinct, sweep, overhead, stages}, nil
}

// loadTester shares the pinned solvers and workload parameters across
// the runs.
type loadTester struct {
	solvers []*lu.Solver
	damping float64
	T, n    int
	workers int
}

// newEngine builds one engine under test around the shared solvers;
// tracer is nil except on the traced side of the tracing A/B.
func (lt *loadTester) newEngine(tracer *trace.Tracer) *serve.Engine {
	eng := serve.New(serve.Config{
		Workers:      lt.workers,
		Damping:      lt.damping,
		MaxSnapshots: lt.T,
		// A bounded queue that absorbs arrival jitter (time.Sleep
		// granularity bunches paced arrivals) but keeps worst-case
		// waiting at a few dozen solves; beyond it, excess load sheds.
		QueueDepth: 64,
		// Tiny cache relative to the key space: bursts are absorbed by
		// coalescing, never by pure cache capacity.
		CacheSize: 32,
		Tracer:    tracer,
	})
	// Engines only read pinned solvers, so the runs can share them.
	for i, s := range lt.solvers {
		eng.Pin(i, s)
	}
	return eng
}

// loadQuery derives one deterministic query, RWR-dominant with
// sources spread over all n nodes so distinct streams rarely
// collide. snap pins the snapshot; snap < 0 draws it at random.
func loadQuery(rng *xrand.Rand, T, n int, snap int) serve.Query {
	q := serve.Query{Snapshot: snap}
	if snap < 0 {
		q.Snapshot = rng.Intn(T)
	}
	switch rng.Intn(8) {
	case 0:
		q.Measure = serve.MeasurePPR
		q.Sources = []int{rng.Intn(n), rng.Intn(n)}
	case 1:
		q.Measure = serve.MeasureTopK
		q.Source = rng.Intn(n)
		q.K = 1 + rng.Intn(10)
	default:
		q.Measure = serve.MeasureRWR
		q.Source = rng.Intn(n)
	}
	return q
}

// closedLoopResult is a saturation run's outcome, used to calibrate
// capacity for the open-loop tables.
type closedLoopResult struct {
	total int
	wall  time.Duration
}

func (r *closedLoopResult) qps() float64 { return float64(r.total) / r.wall.Seconds() }

// closedLoop saturates the engine with clients that issue unique
// queries back to back, measuring sustainable throughput.
func (lt *loadTester) closedLoop(clients, perClient int) (*closedLoopResult, error) {
	errc := make(chan error, clients)
	eng := lt.newEngine(nil)
	defer eng.Close()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		rng := xrand.New(uint64(101 + c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				if _, err := eng.Query(ctx, loadQuery(rng, lt.T, lt.n, -1)); err != nil {
					errc <- fmt.Errorf("bench: loadtest closed-loop: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return &closedLoopResult{total: clients * perClient, wall: wall}, nil
}

// openResult is one open-loop run's outcome. ansLat and shedLat are
// ascending.
type openResult struct {
	total    int
	answered int64
	shed     int64
	wall     time.Duration
	ansLat   []time.Duration
	shedLat  []time.Duration
	st       serve.Stats
}

func (r *openResult) offeredQPS() float64 { return float64(r.total) / r.wall.Seconds() }
func (r *openResult) goodputQPS() float64 { return float64(r.answered) / r.wall.Seconds() }
func (r *openResult) shedFrac() float64   { return float64(r.shed) / float64(r.total) }
func (r *openResult) goodputPerCore(workers int) float64 {
	return r.goodputQPS() / float64(workers)
}

func (r *openResult) cells(name string, workers int) []string {
	return []string{
		name,
		f(r.offeredQPS()),
		f(r.goodputPerCore(workers)),
		f(r.shedFrac()),
		durUS(pctl(r.ansLat, 0.50)),
		durUS(pctl(r.ansLat, 0.99)),
		fmt.Sprint(r.st.Coalesced),
		fmt.Sprint(r.st.BlockSolves),
		fmt.Sprint(r.st.PanelSolves),
		fmt.Sprint(r.st.ColdSolves),
	}
}

// openLoadReps runs openLoad reps times against fresh engines and
// pools the outcomes, damping GC- and scheduler-induced tail noise
// on small machines.
func (lt *loadTester) openLoadReps(tracer *trace.Tracer, rate float64, burst, snap, reps int) (*openResult, error) {
	var sum *openResult
	for rep := 0; rep < reps; rep++ {
		r, err := lt.openLoad(tracer, rate, burst, snap)
		if err != nil {
			return nil, err
		}
		sum = poolRuns(sum, r)
	}
	sortLats(sum)
	return sum, nil
}

// poolRuns merges one more open-loop run into sum (nil sum starts a
// fresh pool). Latency slices are left unsorted; call sortLats before
// reading quantiles.
func poolRuns(sum, r *openResult) *openResult {
	if sum == nil {
		return r
	}
	sum.total += r.total
	sum.answered += r.answered
	sum.shed += r.shed
	sum.wall += r.wall
	sum.ansLat = append(sum.ansLat, r.ansLat...)
	sum.shedLat = append(sum.shedLat, r.shedLat...)
	sum.st.Coalesced += r.st.Coalesced
	sum.st.BlockSolves += r.st.BlockSolves
	sum.st.BlockedRHS += r.st.BlockedRHS
	sum.st.PanelSolves += r.st.PanelSolves
	sum.st.PanelRHS += r.st.PanelRHS
	sum.st.ColdSolves += r.st.ColdSolves
	return sum
}

func sortLats(r *openResult) {
	sort.Slice(r.ansLat, func(i, j int) bool { return r.ansLat[i] < r.ansLat[j] })
	sort.Slice(r.shedLat, func(i, j int) bool { return r.shedLat[i] < r.shedLat[j] })
}

// openLoad offers queries at a fixed rate regardless of completion.
// Arrivals come in runs of burst consecutive duplicates of a fresh
// key (burst=1 means all queries unique): under backlog, a whole
// burst is in flight before its first solve can land in the cache,
// which is exactly the window single-flight coalescing exists for.
// snap pins every query's snapshot (< 0 draws them at random).
func (lt *loadTester) openLoad(tracer *trace.Tracer, rate float64, burst, snap int) (*openResult, error) {
	eng := lt.newEngine(tracer)
	defer eng.Close()

	total := int(rate / 2) // ~0.5 s of offered traffic
	if total < 400 {
		total = 400
	}
	if total > 40000 {
		total = 40000
	}
	total -= total % burst
	interval := time.Duration(float64(time.Second) / rate)
	rng := xrand.New(7)
	keys := make([]serve.Query, total/burst)
	for i := range keys {
		keys[i] = loadQuery(rng, lt.T, lt.n, snap)
	}

	var answered, shed atomic.Int64
	ansLat := make([]time.Duration, total)
	shedLat := make([]time.Duration, total)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	t0 := time.Now()
	next := t0
	for i := 0; i < total; i++ {
		if sleep := time.Until(next); sleep > 0 {
			time.Sleep(sleep)
		}
		next = next.Add(interval)
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			qt := time.Now()
			_, err := eng.Query(context.Background(), keys[i/burst])
			el := time.Since(qt)
			switch {
			case err == nil:
				ansLat[i] = el
				answered.Add(1)
			case errors.Is(err, serve.ErrOverloaded):
				shedLat[i] = el
				shed.Add(1)
			default:
				select {
				case errc <- fmt.Errorf("bench: loadtest open-loop query %d: %w", i, err):
				default:
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	st := eng.Stats()
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	collect := func(src []time.Duration) []time.Duration {
		out := src[:0:0]
		for _, l := range src {
			if l > 0 {
				out = append(out, l)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	return &openResult{
		total:    total,
		answered: answered.Load(),
		shed:     shed.Load(),
		wall:     wall,
		ansLat:   collect(ansLat),
		shedLat:  collect(shedLat),
		st:       st,
	}, nil
}

// pctl reads the p-quantile of an ascending latency slice.
func pctl(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	i := int(p * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return lat[i]
}
