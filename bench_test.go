// Package repro's root benchmark suite: one testing.B benchmark per
// table and figure of the paper (each regenerates the corresponding
// data series via the internal/bench harness at Tiny scale) plus
// micro-benchmarks of the computational kernels and the design-choice
// ablations described in docs/ALGORITHMS.md ("Ablations").
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/api"
	"repro/internal/bench"
	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/measures"
	"repro/internal/order"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// benchExperiment runs one harness experiment per iteration. When
// BENCH_JSON_DIR is set (the CI bench job does), the first iteration's
// tables are persisted as BENCH_<id>.json so every benchmark run
// leaves a machine-readable artifact behind.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := bench.DatasetsFor(gen.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	e, err := bench.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	jsonDir := os.Getenv("BENCH_JSON_DIR")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == 0 && jsonDir != "" {
			// The artifact iteration also records the run's allocation
			// deltas, so every BENCH_*.json carries allocs/op and
			// bytes/op next to the wall time.
			tables, elapsed, allocs, bytes, err := bench.RunMeasured(e, d)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			report := bench.NewReport()
			report.Add(e, gen.Tiny, d.Workers, elapsed, allocs, bytes, tables)
			if err := bench.WriteJSON(bench.ArtifactPath(jsonDir, id), report); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		if _, err := e.Run(d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkFig1PageRankSeries(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig5INCQualityDecay(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6QualityVsAlpha(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7SpeedupVsAlpha(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8TimeBreakdown(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9DeltaESweep(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig10QCBetaSweep(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11PatentCaseStudy(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkTblSolveMethods(b *testing.B)      { benchExperiment(b, "tblSolve") }
func BenchmarkTblBennettProfile(b *testing.B)    { benchExperiment(b, "tblBennett") }

// BenchmarkParallelWorkers runs each LUDEM algorithm end-to-end across
// engine pool sizes (compare sub-benchmark ns/op to see the scaling;
// on a multi-core box CLUDE/workers=4 should be well under workers=1).
func BenchmarkParallelWorkers(b *testing.B) {
	_, ems := benchEMS(b)
	for _, alg := range []core.Algorithm{core.BF, core.CINC, core.CLUDE} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Run(ems, alg, core.Options{Alpha: 0.95, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Kernel micro-benchmarks ---

// benchEMS builds a moderate Wiki-like EMS once for the kernel benches.
func benchEMS(b *testing.B) (*graph.EGS, *graph.EMS) {
	b.Helper()
	egs, err := gen.WikiSim(gen.WikiConfig{
		N: 1000, T: 12, InitialEdges: 2800, FinalEdges: 2960,
		ChurnFrac: 0.25, EventRate: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return egs, graph.DeriveEMS(egs, graph.RWRMatrix(0.85))
}

func BenchmarkKernelMarkowitz(b *testing.B) {
	_, ems := benchEMS(b)
	p := ems.Matrices[0].Pattern()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = order.Markowitz(p)
	}
}

// lateUnion is the union of the medium Wiki sequence's last α = 0.95
// cluster: n = 2000 with |s̃p| past 300 k under its Markowitz ordering,
// most of it a full trailing block.
func lateUnion(b *testing.B) *sparse.Pattern {
	b.Helper()
	egs, err := gen.WikiSim(gen.DefaultWikiConfig())
	if err != nil {
		b.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.RWRMatrix(0.85))
	patterns := make([]*sparse.Pattern, len(ems.Matrices))
	for i, m := range ems.Matrices {
		patterns[i] = m.Pattern()
	}
	clusters := cluster.Alpha(patterns, 0.95)
	last := clusters[len(clusters)-1]
	union := patterns[last.Start]
	for _, p := range patterns[last.Start+1 : last.End] {
		union = union.Union(p)
	}
	return union
}

// BenchmarkKernelMarkowitzLate orders lateUnion, the regime a
// long-running stream's growth batches re-order in, where the
// elimination's dense phase is most of the run (BenchmarkKernelMarkowitz
// is the sparse regime, most of it on lists).
func BenchmarkKernelMarkowitzLate(b *testing.B) {
	union := lateUnion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = order.Markowitz(union)
	}
}

// BenchmarkKernelSymbolicLate sizes lateUnion under its Markowitz
// ordering the way the quality pass and the QC admission tests do
// (lu.SymbolicSize): the regime where every earlier U row of the full
// trailing block prunes to one column (BenchmarkKernelSymbolic is the
// sparse one, a single matrix's structure).
func BenchmarkKernelSymbolicLate(b *testing.B) {
	union := lateUnion(b)
	ord := order.Markowitz(union).Ordering
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lu.SymbolicSize(union, ord)
	}
}

func BenchmarkKernelSymbolic(b *testing.B) {
	_, ems := benchEMS(b)
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	p := ems.Matrices[0].Pattern().Permute(ord.Ordering)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lu.Symbolic(p)
	}
}

// BenchmarkKernelFactorize is one numeric decomposition into a prepared
// container on a warm workspace, the way the engine's workers and a
// stream's rebuild run it: it must read 0 allocs/op.
func BenchmarkKernelFactorize(b *testing.B) {
	_, ems := benchEMS(b)
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	a := ems.Matrices[0].Permute(ord.Ordering)
	f := lu.NewStaticFactors(ord.Symbolic)
	var ws lu.Workspace
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		if err := f.FactorizeWith(a, &ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSolve(b *testing.B) {
	_, ems := benchEMS(b)
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord.Ordering)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, ems.N())
	rhs[3] = 0.15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Solve(rhs)
	}
}

// BenchmarkKernelSolveRHS is BenchmarkKernelSolve through the
// workspace-taking entry point: the same single-seed right-hand side as
// a support list, scattered into the workspace and solved dense.
// Compare ns/op and allocs/op against BenchmarkKernelSolve for the
// per-query win.
func BenchmarkKernelSolveRHS(b *testing.B) {
	_, ems := benchEMS(b)
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord.Ordering)
	if err != nil {
		b.Fatal(err)
	}
	var ws lu.SolveWorkspace
	rhs := lu.RHS{Idx: []int{3}, Val: []float64{0.15}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveRHS(&rhs, &ws)
	}
}

// BenchmarkKernelTopK is the selection behind a topk answer at the
// serving benchmark's shape: the ten best of a 2000-score rwr vector.
func BenchmarkKernelTopK(b *testing.B) {
	rng := xrand.New(9)
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.Float64() * rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = measures.TopK(x, 10)
	}
}

// BenchmarkKernelCachedHit is one repeated rwr question through the
// HTTP handler: resolve, cache hit, and the entry's stored body written
// as it is. Its B/op must not grow with the answer (a 1000-score vector
// here): a hit that re-encoded or copied the vector would show up as
// tens of kilobytes.
func BenchmarkKernelCachedHit(b *testing.B) {
	_, ems := benchEMS(b)
	s, err := lu.FactorizeOrdered(ems.Matrices[0], order.Markowitz(ems.Matrices[0].Pattern()).Ordering)
	if err != nil {
		b.Fatal(err)
	}
	eng := serve.New(serve.Config{Damping: 0.85, Workers: 1})
	defer eng.Close()
	eng.Pin(0, s)
	srv := api.New(api.Options{Engine: eng})
	req := httptest.NewRequest(http.MethodGet, "/v1/query?measure=rwr&source=3&snapshot=0", nil)
	var w discardResponse
	for i := 0; i < 3; i++ { // miss, first hit (stores the body), stored hit
		srv.ServeHTTP(&w, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.ServeHTTP(&w, req)
	}
	if w.status != 0 || w.bytes == 0 {
		b.Fatalf("status %d, %d body bytes", w.status, w.bytes)
	}
}

// discardResponse is an http.ResponseWriter that counts and drops the
// body, so the benchmark measures the handler and not a recorder's
// growing buffer.
type discardResponse struct {
	h      http.Header
	status int
	bytes  int
}

func (d *discardResponse) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponse) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

// BenchmarkKernelBennettStatic measures one EMS step applied to a
// static USSP container (the CLUDE inner loop) the way a cluster chain
// applies it: pre-split terms on the worker's warm workspace, which
// must read 0 allocs/op.
func BenchmarkKernelBennettStatic(b *testing.B) {
	_, ems := benchEMS(b)
	union := ems.Matrices[0].Pattern()
	for _, m := range ems.Matrices[1:] {
		union = union.Union(m.Pattern())
	}
	ord := order.Markowitz(union)
	sym := lu.Symbolic(union.Permute(ord.Ordering))
	f := lu.NewStaticFactors(sym)
	a0 := ems.Matrices[0].Permute(ord.Ordering)
	a1 := ems.Matrices[1].Permute(ord.Ordering)
	if err := f.Factorize(a0); err != nil {
		b.Fatal(err)
	}
	benchThereAndBack(b, f, a0, a1)
}

// benchThereAndBack times a0 → a1 → a0 applied to f as pre-split terms
// on one workspace, warmed by an untimed round trip.
func benchThereAndBack(b *testing.B, f lu.Factors, a0, a1 *sparse.CSR) {
	there, back := bennett.SplitTerms(sparse.Delta(a0, a1)), bennett.SplitTerms(sparse.Delta(a1, a0))
	var ws bennett.Workspace
	var st bennett.Stats
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		if err := ws.ApplyTerms(f, there, &st); err != nil {
			b.Fatal(err)
		}
		if err := ws.ApplyTerms(f, back, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelBennettSymmetric is the CLUDE inner loop of the paper's
// DBLP experiment at ludem_batch's size: the first multi-matrix α = 0.95
// cluster of a 600-author co-authorship sequence, its chain of symmetric
// deltas applied to the cluster's USSP container and then the one delta
// back to the first matrix, as pre-split terms on a warm workspace. The
// factors are their own transpose, so every step takes the symmetric
// cross path; it must read 0 allocs/op.
func BenchmarkKernelBennettSymmetric(b *testing.B) {
	f, _, chain := dblpClusterChain(b)
	var ws bennett.Workspace
	var st bennett.Stats
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
			st = bennett.Stats{}
		}
		for _, terms := range chain {
			if err := ws.ApplyTerms(f, terms, &st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(st.StepsTouched)/float64(b.N), "steps/op")
}

// BenchmarkKernelBennettSymmetricDynamic is the INC/CINC inner loop of
// the same experiment: BenchmarkKernelBennettSymmetric's chain applied
// to linked lists (NewDynamicFactors) of the same first matrix in the
// same ordering, factorized over its own pattern as INC's container is,
// so the chain's fill must be spliced. The lists mirror each other, so
// every step takes the symmetric cross path. The container is rebuilt,
// untimed, before every iteration, so each one times the splices as
// well as the sweeps.
func BenchmarkKernelBennettSymmetricDynamic(b *testing.B) {
	_, a0, chain := dblpClusterChain(b)
	f := lu.NewStaticFactors(lu.Symbolic(a0.Pattern()))
	if err := f.Factorize(a0); err != nil {
		b.Fatal(err)
	}
	var ws bennett.Workspace
	var st bennett.Stats
	inserts, scans := 0, 0
	for i := -1; i < b.N; i++ {
		b.StopTimer()
		d := lu.NewDynamicFactors(f)
		if i == 0 {
			b.ResetTimer()
			st, inserts, scans = bennett.Stats{}, 0, 0
		}
		b.StartTimer()
		for _, terms := range chain {
			if err := ws.ApplyTerms(d, terms, &st); err != nil {
				b.Fatal(err)
			}
		}
		if !d.Mirrored() {
			b.Fatal("the cross path left the lists unmirrored")
		}
		inserts, scans = inserts+d.Inserts, scans+d.ScanSteps
	}
	b.ReportMetric(float64(st.StepsTouched)/float64(b.N), "steps/op")
	b.ReportMetric(float64(inserts)/float64(b.N), "inserts/op")
	b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
}

// dblpClusterChain builds the two symmetric probes' input from the
// first multi-matrix α = 0.95 cluster of a 600-author DBLP-like
// sequence, in the Markowitz ordering of the cluster's union: the first
// matrix factorized into the cluster's USSP container, the first matrix
// itself, and the pre-split terms of each delta along the cluster and
// back to the first matrix.
func dblpClusterChain(b *testing.B) (*lu.StaticFactors, *sparse.CSR, [][]bennett.Rank1Term) {
	b.Helper()
	egs, err := gen.DBLPSim(gen.DBLPConfig{N: 600, T: 24, Communities: 3, InitialPapers: 500, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85))
	patterns := make([]*sparse.Pattern, ems.Len())
	for i, m := range ems.Matrices {
		patterns[i] = m.Pattern()
	}
	var cl cluster.Cluster
	for _, c := range cluster.Alpha(patterns, 0.95) {
		if c.Len() > 1 {
			cl = c
			break
		}
	}
	if cl.Len() < 2 {
		b.Fatal("no cluster with a Bennett chain")
	}
	union := patterns[cl.Start]
	for _, p := range patterns[cl.Start+1 : cl.End] {
		union = union.Union(p)
	}
	ord := order.Markowitz(union).Ordering
	mats := make([]*sparse.CSR, 0, cl.Len()+1)
	for i := cl.Start; i < cl.End; i++ {
		mats = append(mats, ems.Matrices[i].Permute(ord))
	}
	mats = append(mats, mats[0])
	f := lu.NewStaticFactors(lu.Symbolic(union.Permute(ord)))
	if err := f.Factorize(mats[0]); err != nil {
		b.Fatal(err)
	}
	if !f.Mirrored() {
		b.Fatal("the cluster's factors do not mirror themselves")
	}
	chain := make([][]bennett.Rank1Term, len(mats)-1)
	for k := range chain {
		chain[k] = bennett.SplitTerms(sparse.Delta(mats[k], mats[k+1]))
	}
	return f, mats[0], chain
}

// BenchmarkKernelBennettDynamic is the same step through the
// linked-list container (the INC/CINC inner loop) — the head-to-head
// behind the paper's ~70%-restructuring observation.
func BenchmarkKernelBennettDynamic(b *testing.B) {
	_, ems := benchEMS(b)
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	a0 := ems.Matrices[0].Permute(ord.Ordering)
	a1 := ems.Matrices[1].Permute(ord.Ordering)
	static := lu.NewStaticFactors(lu.Symbolic(a0.Pattern()))
	if err := static.Factorize(a0); err != nil {
		b.Fatal(err)
	}
	benchThereAndBack(b, lu.NewDynamicFactors(static), a0, a1)
}

// benchStream opens a CLUDE stream shaped like the end-to-end
// benchmark's ingest_mixed server — the medium Wiki graph's first
// snapshot — with a pool of 256 fresh edges inserted sixteen to a batch,
// the way that workload seeds its flapping pool. It returns the stream,
// the pool, and a source of further fresh edges.
func benchStream(b *testing.B) (s *core.Stream, pool []graph.EdgeEvent, fresh func() graph.EdgeEvent) {
	b.Helper()
	cfg := gen.DefaultWikiConfig()
	cfg.T = 2
	egs, err := gen.WikiSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	g0 := egs.Snapshots[0]
	s, err = core.NewStream(core.StreamConfig{
		Algorithm: core.CLUDE, Alpha: 0.95, Initial: g0, Derive: graph.RWRMatrix(0.85),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	used := map[[2]int]bool{}
	fresh = func() graph.EdgeEvent {
		for {
			u, v := rng.Intn(g0.N()), rng.Intn(g0.N())
			if u != v && !g0.HasEdge(u, v) && !used[[2]int{u, v}] {
				used[[2]int{u, v}] = true
				return graph.EdgeEvent{From: u, To: v, Op: graph.EdgeInsert}
			}
		}
	}
	for k := 0; k < 16; k++ {
		batch := make([]graph.EdgeEvent, 16)
		for i := range batch {
			batch[i] = fresh()
		}
		if _, err := s.Apply(batch); err != nil {
			b.Fatal(err)
		}
		pool = append(pool, batch...)
	}
	return s, pool, fresh
}

// BenchmarkKernelStreamToggle times one flap pair on a warm stream:
// sixteen pool edges deleted in one batch and re-inserted in the next,
// both inside the cluster and the USSP, so each is a Bennett update and
// what surrounds it. The work around the update must stay in the size
// of the batch — watch B/op.
func BenchmarkKernelStreamToggle(b *testing.B) {
	s, pool, _ := benchStream(b)
	defer s.Close()
	off := make([]graph.EdgeEvent, 16)
	for i, ev := range pool[:16] {
		off[i] = graph.EdgeEvent{From: ev.From, To: ev.To, Op: graph.EdgeDelete}
	}
	for i := -1; i < b.N; i++ {
		if i == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for _, batch := range [][]graph.EdgeEvent{off, pool[:16]} {
			if _, err := s.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkKernelStreamGrowth times one growth batch: sixteen edges the
// cluster union has never held, so the stream re-orders the grown union
// and refactorizes — one elimination, one container, one decomposition.
// The union keeps growing, so compare runs at equal -benchtime Nx.
func BenchmarkKernelStreamGrowth(b *testing.B) {
	s, _, fresh := benchStream(b)
	defer s.Close()
	batch := make([]graph.EdgeEvent, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range batch {
			batch[k] = fresh()
		}
		if _, err := s.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (docs/ALGORITHMS.md, "Ablations") ---

// BenchmarkAblationNaturalOrder factors under the identity ordering —
// quantifying how much of the pipeline's win is ordering quality alone.
func BenchmarkAblationNaturalOrder(b *testing.B) {
	_, ems := benchEMS(b)
	a := ems.Matrices[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lu.FactorizeOrdered(a, sparse.IdentityOrdering(a.N())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMarkowitzOrder is the fill-reduced counterpart of
// BenchmarkAblationNaturalOrder (ordering time excluded).
func BenchmarkAblationMarkowitzOrder(b *testing.B) {
	_, ems := benchEMS(b)
	a := ems.Matrices[0]
	ord := order.Markowitz(a.Pattern())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lu.FactorizeOrdered(a, ord.Ordering); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFullPipeline compares the four LUDEM algorithms
// end-to-end on one EMS (reported as separate sub-benchmarks).
func BenchmarkAblationFullPipeline(b *testing.B) {
	_, ems := benchEMS(b)
	for _, alg := range []core.Algorithm{core.BF, core.INC, core.CINC, core.CLUDE} {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(ems, alg, core.Options{Alpha: 0.95}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryAfterDecomposition measures the payoff the whole paper
// is built on: answering one RWR query from prepared factors.
func BenchmarkQueryAfterDecomposition(b *testing.B) {
	egs, ems := benchEMS(b)
	_ = egs
	ord := order.Markowitz(ems.Matrices[0].Pattern())
	s, err := lu.FactorizeOrdered(ems.Matrices[0], ord.Ordering)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(5)
	rhs := make([]float64, ems.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rhs {
			rhs[j] = 0
		}
		rhs[rng.Intn(len(rhs))] = 0.15
		_ = s.Solve(rhs)
	}
}
