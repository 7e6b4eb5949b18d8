package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/measures"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// Experiment is a harness entry regenerating one paper item.
type Experiment struct {
	ID    string
	Paper string // the table/figure it reproduces
	Run   func(d Datasets) ([]*Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1/2: PR time series of one page, key moments", Fig1},
		{"fig5", "Figure 5: INC quality-loss vs matrix index", Fig5},
		{"fig6", "Figure 6: average quality-loss vs alpha", Fig6},
		{"fig7", "Figure 7: speedup over BF vs alpha", Fig7},
		{"fig8", "Figure 8: CLUDE time breakdown; Bennett time CINC vs CLUDE", Fig8},
		{"fig9", "Figure 9: quality & speedup vs DeltaE (synthetic)", Fig9},
		{"fig10", "Figure 10: LUDEM-QC quality & speedup vs beta (DBLP)", Fig10},
		{"fig11", "Figure 11: patent case study PPR ranks", Fig11},
		{"tblSolve", "Section 1/8 claims: solve-after-LU vs GE, PI, MC", TblSolve},
		{"tblBennett", "Section 4 claim: list restructuring share of Bennett time", TblBennett},
		{"ablation", "docs/ALGORITHMS.md Ablations: ordering quality and USSP slack", Ablation},
		{"parallel", "Engine: wall-clock scaling vs worker-pool size (beyond the paper)", Parallel},
		{"history", "Serving layer: delta-compressed factor history — resident bytes and materialization latency vs base spacing (beyond the paper)", History},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Fig1 tracks the PageRank score of one page across the Wiki EGS using
// CLUDE-streamed factors and reports the largest day-over-day changes
// (the paper's "key moments", Figures 1–2).
func Fig1(d Datasets) ([]*Table, error) {
	egs, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	// Track the page whose score changes most (found post hoc);
	// recording all scores is cheap at harness scale.
	n := ems.N()
	scores := make([][]float64, ems.Len())
	_, err = core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers,
		Alpha: 0.95,
		OnFactors: func(i int, s *lu.Solver) {
			e := measures.NewEngineFromSolver(egs.Snapshots[i], d.Damping, s)
			scores[i] = e.PageRank()
		},
	})
	if err != nil {
		return nil, err
	}
	// Pick the page with the largest relative score swing.
	page, bestSwing := 0, 0.0
	for v := 0; v < n; v++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for t := range scores {
			s := scores[t][v]
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
		}
		if lo > 0 {
			if swing := hi / lo; swing > bestSwing {
				bestSwing, page = swing, v
			}
		}
	}
	series := &Table{
		Title:  fmt.Sprintf("PR score of page %d over the EGS (swing %.2fx)", page, bestSwing),
		Header: []string{"snapshot", "PR score"},
	}
	step := maxInt(1, ems.Len()/25)
	for t := 0; t < ems.Len(); t += step {
		series.Rows = append(series.Rows, []string{fmt.Sprint(t), fmt.Sprintf("%.3e", scores[t][page])})
	}
	// Key moments: top day-over-day relative jumps.
	type moment struct {
		t    int
		jump float64
	}
	var ms []moment
	for t := 1; t < ems.Len(); t++ {
		prev := scores[t-1][page]
		if prev > 0 {
			ms = append(ms, moment{t, math.Abs(scores[t][page]-prev) / prev})
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].jump > ms[j].jump })
	moments := &Table{
		Title:  "Key moments (largest day-over-day PR changes)",
		Header: []string{"snapshot", "relative change"},
	}
	for i := 0; i < minInt(5, len(ms)); i++ {
		moments.Rows = append(moments.Rows, []string{fmt.Sprint(ms[i].t), f(ms[i].jump)})
	}
	return []*Table{series, moments}, nil
}

// Fig5 reproduces the INC quality-degradation curves: ql(O*(A1), Ai)
// vs i on both datasets.
func Fig5(d Datasets) ([]*Table, error) {
	var out []*Table
	for _, ds := range []string{"Wikipedia", "DBLP"} {
		ems, err := emsByName(d, ds)
		if err != nil {
			return nil, err
		}
		bf, err := core.Run(ems, core.BF, core.Options{Workers: d.Workers})
		if err != nil {
			return nil, err
		}
		inc, err := core.Run(ems, core.INC, core.Options{Workers: d.Workers, MeasureQuality: true})
		if err != nil {
			return nil, err
		}
		ql := core.QualityLoss(inc.SSPSizes, bf.SSPSizes)
		tbl := &Table{
			Title:  fmt.Sprintf("INC quality-loss vs matrix index (%s); average %.3f", ds, core.Mean(ql)),
			Header: []string{"matrix index", "quality-loss"},
		}
		step := maxInt(1, len(ql)/20)
		for i := 0; i < len(ql); i += step {
			tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(i), f(ql[i])})
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Fig6 sweeps α and reports the average quality-loss of CINC and CLUDE
// on both datasets.
func Fig6(d Datasets) ([]*Table, error) {
	var out []*Table
	for _, ds := range []string{"Wikipedia", "DBLP"} {
		ems, err := emsByName(d, ds)
		if err != nil {
			return nil, err
		}
		bf, err := core.Run(ems, core.BF, core.Options{Workers: d.Workers})
		if err != nil {
			return nil, err
		}
		tbl := &Table{
			Title:  fmt.Sprintf("Average quality-loss vs alpha (%s)", ds),
			Header: []string{"alpha", "CINC", "CLUDE", "clusters(CINC)", "clusters(CLUDE)"},
		}
		for _, a := range d.Alphas {
			cinc, err := core.Run(ems, core.CINC, core.Options{Workers: d.Workers, Alpha: a, MeasureQuality: true})
			if err != nil {
				return nil, err
			}
			clude, err := core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers, Alpha: a, MeasureQuality: true})
			if err != nil {
				return nil, err
			}
			tbl.Rows = append(tbl.Rows, []string{
				f(a),
				f(core.Mean(core.QualityLoss(cinc.SSPSizes, bf.SSPSizes))),
				f(core.Mean(core.QualityLoss(clude.SSPSizes, bf.SSPSizes))),
				fmt.Sprint(len(cinc.Clusters)),
				fmt.Sprint(len(clude.Clusters)),
			})
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Fig7 sweeps α and reports speedups over BF for INC, CINC, CLUDE.
func Fig7(d Datasets) ([]*Table, error) {
	var out []*Table
	for _, ds := range []string{"Wikipedia", "DBLP"} {
		ems, err := emsByName(d, ds)
		if err != nil {
			return nil, err
		}
		bf, err := core.Run(ems, core.BF, core.Options{Workers: d.Workers})
		if err != nil {
			return nil, err
		}
		inc, err := core.Run(ems, core.INC, core.Options{Workers: d.Workers})
		if err != nil {
			return nil, err
		}
		incSpeed := speedup(bf.Wall, inc.Wall)
		tbl := &Table{
			Title:  fmt.Sprintf("Speedup over BF vs alpha (%s); BF wall %s, INC %.2fx", ds, dur(bf.Wall), incSpeed),
			Header: []string{"alpha", "INC", "CINC", "CLUDE"},
		}
		for _, a := range d.Alphas {
			cinc, err := core.Run(ems, core.CINC, core.Options{Workers: d.Workers, Alpha: a})
			if err != nil {
				return nil, err
			}
			clude, err := core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers, Alpha: a})
			if err != nil {
				return nil, err
			}
			tbl.Rows = append(tbl.Rows, []string{
				f(a), f(incSpeed),
				f(speedup(bf.Wall, cinc.Wall)),
				f(speedup(bf.Wall, clude.Wall)),
			})
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Fig8 reports (a) CLUDE's execution-time breakdown across α and (b)
// the Bennett-phase time of CINC vs CLUDE, on the Wiki dataset.
func Fig8(d Datasets) ([]*Table, error) {
	_, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	breakdown := &Table{
		Title:  "CLUDE execution-time breakdown vs alpha (Wiki)",
		Header: []string{"alpha", "total", "clustering", "markowitz", "fullLU", "bennett"},
	}
	headToHead := &Table{
		Title:  "Bennett time: CINC vs CLUDE (Wiki)",
		Header: []string{"alpha", "CINC bennett", "CLUDE bennett", "CINC inserts", "CINC scan steps"},
	}
	for _, a := range d.Alphas {
		clude, err := core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers, Alpha: a})
		if err != nil {
			return nil, err
		}
		cinc, err := core.Run(ems, core.CINC, core.Options{Workers: d.Workers, Alpha: a})
		if err != nil {
			return nil, err
		}
		breakdown.Rows = append(breakdown.Rows, []string{
			f(a), dur(clude.Wall),
			dur(clude.Times.Clustering), dur(clude.Times.Ordering),
			dur(clude.Times.FullLU), dur(clude.Times.Bennett),
		})
		headToHead.Rows = append(headToHead.Rows, []string{
			f(a), dur(cinc.Times.Bennett), dur(clude.Times.Bennett),
			fmt.Sprint(cinc.DynamicInserts), fmt.Sprint(cinc.DynamicScanSteps),
		})
	}
	return []*Table{breakdown, headToHead}, nil
}

// Fig9 sweeps the synthetic generator's ∆E and reports average
// quality-loss and speedup for INC, CINC, CLUDE (α fixed at 0.95 as in
// the paper's stable region).
func Fig9(d Datasets) ([]*Table, error) {
	quality := &Table{
		Title:  "Average quality-loss vs DeltaE (synthetic)",
		Header: []string{"DeltaE", "INC", "CINC", "CLUDE"},
	}
	speed := &Table{
		Title:  "Speedup over BF vs DeltaE (synthetic)",
		Header: []string{"DeltaE", "INC", "CINC", "CLUDE"},
	}
	const alpha = 0.95
	for _, de := range d.DeltaEs {
		cfg := d.Synthetic
		cfg.DeltaE = de
		egs, err := gen.Synthetic(cfg)
		if err != nil {
			return nil, err
		}
		ems := graph.DeriveEMS(egs, graph.RWRMatrix(d.Damping))
		bf, err := core.Run(ems, core.BF, core.Options{Workers: d.Workers})
		if err != nil {
			return nil, err
		}
		inc, err := core.Run(ems, core.INC, core.Options{Workers: d.Workers, MeasureQuality: true})
		if err != nil {
			return nil, err
		}
		cinc, err := core.Run(ems, core.CINC, core.Options{Workers: d.Workers, Alpha: alpha, MeasureQuality: true})
		if err != nil {
			return nil, err
		}
		clude, err := core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers, Alpha: alpha, MeasureQuality: true})
		if err != nil {
			return nil, err
		}
		quality.Rows = append(quality.Rows, []string{
			fmt.Sprint(de),
			f(core.Mean(core.QualityLoss(inc.SSPSizes, bf.SSPSizes))),
			f(core.Mean(core.QualityLoss(cinc.SSPSizes, bf.SSPSizes))),
			f(core.Mean(core.QualityLoss(clude.SSPSizes, bf.SSPSizes))),
		})
		speed.Rows = append(speed.Rows, []string{
			fmt.Sprint(de),
			f(speedup(bf.Wall, inc.Wall)),
			f(speedup(bf.Wall, cinc.Wall)),
			f(speedup(bf.Wall, clude.Wall)),
		})
	}
	return []*Table{quality, speed}, nil
}

// Fig10 sweeps β for the LUDEM-QC problem on the symmetric DBLP EMS.
func Fig10(d Datasets) ([]*Table, error) {
	_, ems, err := dblpEMS(d)
	if err != nil {
		return nil, err
	}
	bf, err := core.Run(ems, core.BF, core.Options{Workers: d.Workers})
	if err != nil {
		return nil, err
	}
	inc, err := core.Run(ems, core.INC, core.Options{Workers: d.Workers})
	if err != nil {
		return nil, err
	}
	star := core.StarSizes(ems, true)
	quality := &Table{
		Title:  "LUDEM-QC: average quality-loss vs beta (DBLP)",
		Header: []string{"beta", "CINC", "CLUDE", "clusters(CINC)", "clusters(CLUDE)"},
	}
	speed := &Table{
		Title:  fmt.Sprintf("LUDEM-QC: speedup over BF vs beta (DBLP); INC %.2fx", speedup(bf.Wall, inc.Wall)),
		Header: []string{"beta", "CINC", "CLUDE"},
	}
	for _, b := range d.Betas {
		cinc, err := core.RunQC(ems, core.CINC, b, core.Options{Workers: d.Workers, MeasureQuality: true, StarSizes: star})
		if err != nil {
			return nil, err
		}
		clude, err := core.RunQC(ems, core.CLUDE, b, core.Options{Workers: d.Workers, MeasureQuality: true, StarSizes: star})
		if err != nil {
			return nil, err
		}
		quality.Rows = append(quality.Rows, []string{
			f(b),
			f(core.Mean(core.QualityLoss(cinc.SSPSizes, star))),
			f(core.Mean(core.QualityLoss(clude.SSPSizes, star))),
			fmt.Sprint(len(cinc.Clusters)),
			fmt.Sprint(len(clude.Clusters)),
		})
		speed.Rows = append(speed.Rows, []string{
			f(b),
			f(speedup(bf.Wall, cinc.Wall)),
			f(speedup(bf.Wall, clude.Wall)),
		})
	}
	return []*Table{quality, speed}, nil
}

// Fig11 runs the patent case study: yearly PPR proximity of each
// company from the subject company's patents, reported as ranks. The
// planted riser must climb.
func Fig11(d Datasets) ([]*Table, error) {
	data, err := gen.PatentSim(d.Patent)
	if err != nil {
		return nil, err
	}
	// Reverse the citation arcs: random-walk mass from the subject's
	// patents must flow toward the patents *citing* them.
	egs := reverseEGS(data.EGS)
	nc := len(data.Names)
	subject := 0

	tbl := &Table{
		Title:  fmt.Sprintf("Company proximity rank from %s patents (PPR), yearly", data.Names[subject]),
		Header: append([]string{"year"}, data.Names[1:]...),
	}
	ems := graph.DeriveEMS(egs, graph.RWRMatrix(d.Damping))
	ranksPerYear := make([][]int, ems.Len())
	_, err = core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers,
		Alpha: 0.9,
		OnFactors: func(year int, s *lu.Solver) {
			e := measures.NewEngineFromSolver(egs.Snapshots[year], d.Damping, s)
			var seeds []int
			for v := 0; v < egs.N(); v++ {
				if data.Company[v] == subject && data.GrantYear[v] <= year {
					seeds = append(seeds, v)
				}
			}
			ppr := e.PPR(seeds)
			prox := make([]float64, nc)
			for v := 0; v < egs.N(); v++ {
				if data.GrantYear[v] <= year {
					prox[data.Company[v]] += ppr[v]
				}
			}
			// Rank companies other than the subject by proximity.
			scores := prox[1:]
			ranksPerYear[year] = measures.Ranks(scores)
		},
	})
	if err != nil {
		return nil, err
	}
	for year, ranks := range ranksPerYear {
		row := []string{fmt.Sprint(1979 + year)}
		for _, r := range ranks {
			row = append(row, fmt.Sprint(r))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	riser := data.Names[d.Patent.RisingCompany]
	early := ranksPerYear[1][d.Patent.RisingCompany-1]
	late := ranksPerYear[len(ranksPerYear)-1][d.Patent.RisingCompany-1]
	note := &Table{
		Title:  fmt.Sprintf("Riser check: %s rank year1=%d final=%d (must improve)", riser, early, late),
		Header: []string{"company", "rank year 1", "rank final year"},
	}
	for c := 1; c < nc; c++ {
		note.Rows = append(note.Rows, []string{
			data.Names[c],
			fmt.Sprint(ranksPerYear[1][c-1]),
			fmt.Sprint(ranksPerYear[len(ranksPerYear)-1][c-1]),
		})
	}
	return []*Table{tbl, note}, nil
}

// TblSolve quantifies the §1 claim chain on one Wiki snapshot: a
// forward/backward solve on prepared LU factors vs (a) a from-scratch
// GE per query, (b) power iteration, (c) Monte Carlo.
func TblSolve(d Datasets) ([]*Table, error) {
	egs, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	g := egs.Snapshots[egs.Len()-1]
	a := ems.Matrices[ems.Len()-1]
	ord := orderOf(a)
	solver, err := lu.FactorizeOrdered(a, ord)
	if err != nil {
		return nil, err
	}
	u := 0
	b := sparse.Basis(g.N(), u, 1-d.Damping)

	reps := 50
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		_ = solver.Solve(b)
	}
	solveT := time.Since(t0) / time.Duration(reps)

	t1 := time.Now()
	geReps := 3
	for r := 0; r < geReps; r++ {
		if _, err := measures.SolveFreshGE(g, d.Damping, b); err != nil {
			return nil, err
		}
	}
	geT := time.Since(t1) / time.Duration(geReps)

	t2 := time.Now()
	_, iters := measures.PowerIterationRWR(g, d.Damping, u, 1e-10, 10000)
	piT := time.Since(t2)

	t3 := time.Now()
	_ = measures.MonteCarloRWR(g, d.Damping, u, 2000, 100, xrand.New(9))
	mcT := time.Since(t3)

	tbl := &Table{
		Title:  "Per-query cost of RWR on one Wiki snapshot",
		Header: []string{"method", "time/query", "vs LU-solve"},
		Rows: [][]string{
			{"LU solve (factors ready)", dur(solveT), "1x"},
			{"fresh GE per query", dur(geT), f(float64(geT) / float64(solveT))},
			{fmt.Sprintf("power iteration (%d iters)", iters), dur(piT), f(float64(piT) / float64(solveT))},
			{"Monte Carlo (2000 walks)", dur(mcT), f(float64(mcT) / float64(solveT))},
		},
	}
	return []*Table{tbl}, nil
}

// TblBennett isolates the paper's 70%-restructuring claim: the same
// cluster of updates through the dynamic container (INC/CINC style) vs
// the static USSP container (CLUDE style).
func TblBennett(d Datasets) ([]*Table, error) {
	_, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	cinc, err := core.Run(ems, core.CINC, core.Options{Workers: d.Workers, Alpha: 0.95})
	if err != nil {
		return nil, err
	}
	clude, err := core.Run(ems, core.CLUDE, core.Options{Workers: d.Workers, Alpha: 0.95})
	if err != nil {
		return nil, err
	}
	ratio := float64(cinc.Times.Bennett) / math.Max(1, float64(clude.Times.Bennett))
	tbl := &Table{
		Title:  "Bennett phase: dynamic (CINC) vs static USSP (CLUDE), Wiki, alpha=0.95",
		Header: []string{"metric", "CINC (dynamic lists)", "CLUDE (static USSP)"},
		Rows: [][]string{
			{"bennett time", dur(cinc.Times.Bennett), dur(clude.Times.Bennett)},
			{"list inserts", fmt.Sprint(cinc.DynamicInserts), "0"},
			{"list scan steps", fmt.Sprint(cinc.DynamicScanSteps), "0"},
			{"dynamic/static time ratio", f(ratio), "1"},
		},
	}
	return []*Table{tbl}, nil
}

// --- helpers ---

func emsByName(d Datasets, name string) (*graph.EMS, error) {
	switch name {
	case "Wikipedia":
		_, ems, err := wikiEMS(d)
		return ems, err
	case "DBLP":
		_, ems, err := dblpEMS(d)
		return ems, err
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}

func speedup(base, t time.Duration) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	return float64(base) / float64(t)
}

// orderOf computes the Markowitz ordering of a matrix (tiny wrapper to
// keep the experiment code terse).
func orderOf(a *sparse.CSR) sparse.Ordering {
	return markowitzOrdering(a.Pattern())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// markowitzOrdering is a local indirection so experiments.go reads
// without the order-package plumbing inline.
func markowitzOrdering(p *sparse.Pattern) sparse.Ordering {
	return order.Markowitz(p).Ordering
}

// reverseEGS flips every snapshot's arcs (see graph.Reverse).
func reverseEGS(s *graph.EGS) *graph.EGS {
	snaps := make([]*graph.Graph, s.Len())
	for i, g := range s.Snapshots {
		snaps[i] = g.Reverse()
	}
	out, err := graph.NewEGS(snaps)
	if err != nil {
		panic(err) // reversal preserves EGS invariants
	}
	return out
}
