package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/measures"
	"repro/internal/order"
	"repro/internal/store"
)

// ludemParams fixes the ludem_batch workload: the paper's own
// experiment, the four LUDEM algorithms over seeded DBLP-like sequences
// of symmetric matrices, through the library entry point.
//
// One run works through several independent datasets drawn from the
// seed and reports totals over them. How much fill a drawn co-authorship
// graph produces varies by ±10 % from one draw to the next; summing over
// six draws keeps that variation, which says nothing about the code, out
// of the comparison between two sets of seeds.
type ludemParams struct {
	datasets      int // independent sequences per run
	n, t          int // authors, daily snapshots (t scales with -seconds)
	papers, daily int // papers before day 1, new papers per day
	checkEvery    int // answers are checked on every this-many-th snapshot
	solves        int // timed RWR solves per snapshot on CLUDE's factors
	probeCalls    int // calls per kernel probe (traced runs)
}

var (
	ludemBatch = ludemParams{datasets: 6, n: 600, t: 96, papers: 500, daily: 2,
		checkEvery: 16, solves: 10, probeCalls: 200}
	ludemQuick = ludemParams{datasets: 2, n: 150, t: 10 / quickScale, papers: 130, daily: 1,
		checkEvery: 4, solves: 5, probeCalls: 3}
)

const (
	ludemAlpha   = 0.95
	ludemDamping = 0.85
	answerTol    = 1e-9
)

var ludemAlgs = []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE}

// checkSources are the RWR sources whose answers the four algorithms
// must agree on.
var checkSources = []int{0, 7}

// ludemTotals accumulates one algorithm's figures over the datasets.
type ludemTotals struct {
	wall                             float64 // seconds
	cluster, order, fullLU, bennett  time.Duration
	clusters, updates, inserts, scan int
	structSizes, structCount         float64
	last                             *core.Result
}

func (t *ludemTotals) add(res *core.Result) {
	t.wall += res.Wall.Seconds()
	t.cluster += res.Times.Clustering
	t.order += res.Times.Ordering
	t.fullLU += res.Times.FullLU
	t.bennett += res.Times.Bennett
	t.clusters += len(res.Clusters)
	t.updates += res.Bennett.Rank1Updates
	t.inserts += res.DynamicInserts
	t.scan += res.DynamicScanSteps
	for _, s := range res.StructureSizes {
		t.structSizes += float64(s)
	}
	t.structCount += float64(len(res.StructureSizes))
	t.last = res
}

func runLudem(r *run) error {
	p := ludemBatch
	if r.quick {
		p = ludemQuick
	}
	p.t = r.scaled(p.t)
	self := os.Getpid()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	var setups, genS, deriveMS, rss, quality, solveMS []float64
	var cpu time.Duration
	totals := map[core.Algorithm]*ludemTotals{}
	for _, alg := range ludemAlgs {
		totals[alg] = &ludemTotals{}
	}
	rng := rand.New(rand.NewSource(r.seed))
	var ems *graph.EMS
	trace := 0
	for d := 0; d < p.datasets; d++ {
		// Set-up: generate a co-authorship sequence from the seed and
		// derive its matrix sequence — first call until the inputs of
		// core.Run exist.
		resetPeakRSS()
		t0 := time.Now()
		egs, err := gen.DBLPSim(gen.DBLPConfig{
			N: p.n, T: p.t, Communities: 3, InitialPapers: p.papers, PapersPerDay: p.daily,
			MaxCoauthors: 4, CrossCommunity: 0.05, Seed: uint64(r.seed)*uint64(p.datasets) + uint64(d),
		})
		if err != nil {
			return err
		}
		t1 := time.Now()
		ems = graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(ludemDamping))
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		genS = append(genS, t1.Sub(t0).Seconds())
		deriveMS = append(deriveMS, ms(t2.Sub(t1))/float64(p.t))
		r.rec.add(d, 0, "gen.DBLPSim", t0, t1)
		r.rec.add(d, 0, "graph.DeriveEMS", t1, t2)

		// One timed pass over the four algorithms, their order rotated
		// from dataset to dataset so none always runs on the same side of
		// a garbage collection or a noisy neighbour.
		cpu0, err := procCPU(self)
		if err != nil {
			return err
		}
		answers := map[core.Algorithm][][]float64{}
		sizes := map[core.Algorithm][]int{}
		for k := range ludemAlgs {
			alg := ludemAlgs[(k+d)%len(ludemAlgs)]
			r.attempt()
			t0 := time.Now()
			res, err := core.Run(ems, alg, core.Options{
				Alpha: ludemAlpha, Workers: 1, MeasureQuality: alg == core.CLUDE,
				OnFactors: func(i int, s *lu.Solver) {
					if i%p.checkEvery != 0 {
						return
					}
					eng := measures.NewSolverEngine(ludemDamping, s)
					for _, u := range checkSources {
						answers[alg] = append(answers[alg], eng.RWR(u))
					}
				},
			})
			if err != nil {
				return fmt.Errorf("ludem_batch %s on dataset %d: %w", alg, d, err)
			}
			totals[alg].add(res)
			sizes[alg] = res.SSPSizes
			trace++
			r.runSpans(trace, t0, res)
		}
		cpu1, err := procCPU(self)
		if err != nil {
			return err
		}
		cpu += cpu1 - cpu0
		r.checkLudemAnswers(ems, p, answers)
		// Quality loss (Definition 4) of CLUDE's shared orderings against
		// each matrix's own ordering, which is BF's; a count, exact for a
		// given seed.
		quality = append(quality, mean(core.QualityLoss(sizes[core.CLUDE], sizes[core.BF])))

		// The read side: what a library user pays per query on the factors
		// CLUDE maintains, every snapshot, a fixed number of seeded sources.
		r.attempt()
		if _, err := core.Run(ems, core.CLUDE, core.Options{
			Alpha: ludemAlpha, Workers: 1,
			OnFactors: func(i int, s *lu.Solver) {
				eng := measures.NewSolverEngine(ludemDamping, s)
				for k := 0; k < p.solves; k++ {
					u := rng.Intn(p.n)
					t0 := time.Now()
					x := eng.RWR(u)
					solveMS = append(solveMS, ms(time.Since(t0)))
					if len(x) != p.n || x[u] < (1-ludemDamping)-roundoff {
						r.fail("ludem_batch: RWR(%d) on snapshot %d keeps %v at its source", u, i, x[u])
					}
				}
			},
		}); err != nil {
			return fmt.Errorf("ludem_batch CLUDE query pass on dataset %d: %w", d, err)
		}
		peak, err := procPeakRSS(self)
		if err != nil {
			return err
		}
		rss = append(rss, peak)
	}

	matrices := float64(p.datasets * p.t)
	clude := totals[core.CLUDE].wall
	r.setEnd("setup_s", median(setups))
	r.setEnd("throughput_per_s", matrices/clude)
	r.setEnd("cpu_ms_per_op", ms(cpu)/(matrices*float64(len(ludemAlgs))))
	r.setLayer("loadgen.query_p50_ms", windowPercentile(solveMS, p.datasets, 0.50))
	r.setLayer("loadgen.query_p95_ms", windowPercentile(solveMS, p.datasets, 0.95))
	r.setEnd("peak_rss_mb", median(rss))
	r.setLayer("gen.generate_s", median(genS))
	r.setLayer("graph.derive_ms", median(deriveMS))
	r.setLayer("ludem_quality_loss", mean(quality))
	r.batchLayers(totals)
	r.say("  ludem_batch: %d datasets of N=%d T=%d, alpha=%.2f  totals: BF %.3fs INC %.3fs CINC %.3fs CLUDE %.3fs  solves %d",
		p.datasets, p.n, p.t, ludemAlpha, totals[core.BF].wall, totals[core.INC].wall, totals[core.CINC].wall, clude, len(solveMS))
	if !r.traced {
		return nil
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	r.setLayer("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	r.setLayer("runtime.heap_mb", float64(gc1.HeapAlloc)/(1<<20))
	r.setLayer("loadgen.sent", float64(r.attempted.Load()))
	r.setLayer("loadgen.samples", float64(len(solveMS)))
	for _, alg := range ludemAlgs {
		r.budgets = append(r.budgets, runBudget(totals[alg].last))
	}
	if err := r.kernelProbes(ems, p); err != nil {
		return err
	}
	// Nothing inside core.Run is traced, so the recorder's own busy time
	// is all the tracing costs here.
	r.setLayer("trace.retained", float64(r.rec.len()))
	r.setLayer("trace.overhead_frac", ratio(r.rec.busy.Seconds(), time.Since(r.rec.epoch).Seconds()))
	return nil
}

// checkLudemAnswers compares, on every checked snapshot and source, the
// four algorithms' RWR answers with each other and with the matrix:
// ‖x_alg − x_BF‖∞ and ‖A·x − b‖∞ must both stay within answerTol.
func (r *run) checkLudemAnswers(ems *graph.EMS, p ludemParams, answers map[core.Algorithm][][]float64) {
	ref := answers[core.BF]
	for k, x := range ref {
		r.attempt()
		snap, u := k/len(checkSources)*p.checkEvery, checkSources[k%len(checkSources)]
		a := ems.Matrices[snap]
		ax := a.MulVec(x)
		ax[u] -= 1 - ludemDamping
		worst := 0.0
		for _, v := range ax {
			worst = math.Max(worst, math.Abs(v))
		}
		if !(worst <= answerTol) {
			r.fail("ludem_batch: BF residual %.3g on snapshot %d source %d", worst, snap, u)
			continue
		}
		for _, alg := range ludemAlgs[1:] {
			if k >= len(answers[alg]) {
				r.fail("ludem_batch: %s gave no answer for snapshot %d", alg, snap)
				break
			}
			diff := 0.0
			for i, v := range answers[alg][k] {
				diff = math.Max(diff, math.Abs(v-x[i]))
			}
			if !(diff <= answerTol) {
				r.fail("ludem_batch: %s differs from BF by %.3g on snapshot %d source %d", alg, diff, snap, u)
				break
			}
		}
	}
}

// runSpans records one core.Run as a span with its Result.Times phases
// laid end to end beneath it; what they leave uncovered is the run's
// self time (emission, bookkeeping, callbacks).
func (r *run) runSpans(trace int, start time.Time, res *core.Result) {
	root := r.rec.add(trace, 0, "core.Run."+string(res.Algorithm), start, start.Add(res.Wall))
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"cluster", res.Times.Clustering}, {"order", res.Times.Ordering},
		{"lu.full", res.Times.FullLU}, {"bennett", res.Times.Bennett},
	} {
		r.rec.add(trace, root, ph.name, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// runBudget explains one algorithm's wall time by its phases.
func runBudget(res *core.Result) budget {
	return newBudget(fmt.Sprintf("ludem_batch %s (one core.Run on the last dataset, Workers 1)", res.Algorithm), ms(res.Wall), []budgetRow{
		{"cluster", "clustering (t_c)", ms(res.Times.Clustering)},
		{"order", "Markowitz / MinDegree orderings (t_M)", ms(res.Times.Ordering)},
		{"lu", "symbolic + numeric full decompositions (t_d)", ms(res.Times.FullLU)},
		{"bennett", "incremental updates (t_B)", ms(res.Times.Bennett)},
	})
}

// batchLayers reports the four batch layers per algorithm, totalled over
// the datasets, and each algorithm's total wall time. Layers an algorithm
// does not have (BF and INC do not cluster, BF has no Bennett updates,
// only INC and CINC restructure lists) are left out.
func (r *run) batchLayers(totals map[core.Algorithm]*ludemTotals) {
	for _, alg := range ludemAlgs {
		t, a := totals[alg], strings.ToLower(string(alg))
		r.setLayer("ludem_"+a+"_s", t.wall)
		r.setLayer("order.time_s."+a, t.order.Seconds())
		r.setLayer("lu.full_time_s."+a, t.fullLU.Seconds())
		r.setLayer("lu.structure_size_mean."+a, ratio(t.structSizes, t.structCount))
		if alg == core.CINC || alg == core.CLUDE {
			r.setLayer("cluster.time_s."+a, t.cluster.Seconds())
			r.setLayer("cluster.count."+a, float64(t.clusters))
		}
		if alg != core.BF {
			r.setLayer("bennett.time_s."+a, t.bennett.Seconds())
			r.setLayer("bennett.updates."+a, float64(t.updates))
		}
		if alg == core.INC || alg == core.CINC {
			r.setLayer("lu.dynamic_inserts."+a, float64(t.inserts))
			r.setLayer("lu.dynamic_scan_steps."+a, float64(t.scan))
		}
	}
}

// kernelProbes times single public kernels in-process on the sequence's
// last matrix: the numbers a layer-level optimisation moves first.
func (r *run) kernelProbes(ems *graph.EMS, p ludemParams) error {
	a := ems.Matrices[ems.Len()-1]
	trace := 1000
	probe := func(name string, f func() error) (float64, error) {
		times := make([]float64, p.probeCalls)
		for i := range times {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			t1 := time.Now()
			times[i] = ms(t1.Sub(t0))
			r.rec.add(trace, 0, "probe."+name, t0, t1)
			trace++
		}
		return median(times), nil
	}

	var ord order.Result
	v, err := probe("order.Markowitz", func() error { ord = order.Markowitz(a.Pattern()); return nil })
	if err != nil {
		return err
	}
	r.setLayer("order.markowitz_ms", v)

	var solver *lu.Solver
	if v, err = probe("lu.FactorizeOrdered", func() (err error) { solver, err = lu.FactorizeOrdered(a, ord.Ordering); return }); err != nil {
		return err
	}
	r.setLayer("lu.factorize_ms", v)

	eng, u := measures.NewSolverEngine(ludemDamping, solver), 0
	if v, err = probe("measures.RWR", func() error { eng.RWR(u % p.n); u += 37; return nil }); err != nil {
		return err
	}
	r.setLayer("measures.rwr_us", v*1e3)

	var frame bytes.Buffer
	if v, err = probe("store.WriteSolver", func() error { frame.Reset(); return store.WriteSolver(&frame, solver) }); err != nil {
		return err
	}
	r.setLayer("store.write_solver_ms", v)
	r.setLayer("store.solver_bytes", float64(frame.Len()))
	if v, err = probe("store.ReadSolver", func() error { _, err := store.ReadSolver(bytes.NewReader(frame.Bytes())); return err }); err != nil {
		return err
	}
	r.setLayer("store.read_solver_ms", v)
	return nil
}
