package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bennett"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

func hashInts(h hash.Hash64, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash64, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// hashSolver folds a solver's ordering and every bit of its factor
// container — structure, values and, for the dynamic container, the
// node-pool layout and restructuring counters — into h.
func hashSolver(h hash.Hash64, s *lu.Solver) {
	hashInts(h, s.O.Row...)
	hashInts(h, s.O.Col...)
	switch f := s.F.(type) {
	case *lu.StaticFactors:
		hashInts(h, f.LColPtr...)
		hashInts(h, f.LRowIdx...)
		hashInts(h, f.URowPtr...)
		hashInts(h, f.UColIdx...)
		hashFloats(h, f.LVal)
		hashFloats(h, f.UVal)
		hashFloats(h, f.D)
	case *lu.DynamicFactors:
		for _, nd := range f.Nodes {
			hashInts(h, nd.Idx, int(math.Float64bits(nd.Val)), nd.Next)
		}
		hashInts(h, f.LHead...)
		hashInts(h, f.UHead...)
		hashFloats(h, f.D)
		hashInts(h, f.Inserts, f.ScanSteps)
	}
}

func hashResult(h hash.Hash64, res *Result) {
	hashInts(h, res.SSPSizes...)
	hashInts(h, res.StructureSizes...)
	hashInts(h, len(res.Clusters), res.Refactorizations,
		res.Bennett.Rank1Updates, res.Bennett.StepsTouched, res.Bennett.Dropped,
		res.DynamicInserts, res.DynamicScanSteps)
}

// goldenFactors holds, per run of TestGoldenFactors, the FNV-1a hash of
// every emitted solver (hashSolver) and of the run's counters, recorded
// at PR 15 — before clones shared their index structure, eliminate lost
// its hash sets, rank1Static counted instead of rescanning and the
// dataset path stopped sorting. None of those may move a factor bit, a
// pivot, a Bennett step or a list splice.
//
// The five symmetric entries marked below were re-pinned once, on
// purpose, when bennett.SplitTerms began splitting ∆A along a minimum
// row/column cover: a symmetric walk matrix changes as a cross, whose
// cover is a handful of row and column terms where the one-sided split
// used one term per touched column, so the Bennett chains of INC, CINC
// and CLUDE over symmetricEMS (Run and RunQC) apply different, far fewer
// rank-1 terms and round differently. Directed deltas keep the one-sided split, so
// every directed, BF and replay entry is the original recording.
//
// run/CLUDE/symmetric and qc/CLUDE were re-pinned a second time, on
// purpose, when bennett.Workspace.ApplyTerms gained the symmetric cross
// path: CLUDE's static factors of a symmetric walk matrix are their own
// transpose, so each step is applied as one symmetric rank-2 update per
// cover vertex instead of a row and a column rank-1 term — the same
// factors up to rounding and the propagation cutoff. INC and CINC
// keep the rank-1 path on their dynamic containers, and every directed
// delta keeps it too.
var goldenFactors = map[string]uint64{
	"run/BF/directed":     0xf43de78b39ff0e23,
	"run/BF/symmetric":    0x78f28c465392d8fc,
	"run/INC/directed":    0x29f4a3ef747451ca,
	"run/INC/symmetric":   0x46b4222b5a07a420, // re-pinned: minimum-cover split
	"run/CINC/directed":   0x229b4c82b8bed359,
	"run/CINC/symmetric":  0x84da9c191b55edeb, // re-pinned: minimum-cover split
	"run/CLUDE/directed":  0x43e09f0e3204a160,
	"run/CLUDE/symmetric": 0xfc9626250bd8c2a,  // re-pinned: minimum-cover split, then symmetric cross path
	"qc/CINC":             0x12318be73279d24b, // re-pinned: minimum-cover split
	"qc/CLUDE":            0xc39bfb8540ac21e,  // re-pinned: minimum-cover split, then symmetric cross path
	"replay/BF":           0x7e7bdea2e38b147a,
	"replay/INC":          0xaa443500889f196,
	"replay/CINC":         0x7304bc3719b701a1,
	"replay/CLUDE":        0x958ba1cceee9aca8,
}

func TestGoldenFactors(t *testing.T) {
	check := func(name string, h hash.Hash64) {
		t.Helper()
		if got, want := h.Sum64(), goldenFactors[name]; got != want {
			t.Errorf("%q: %#x, golden %#x", name, got, want)
		}
	}
	emit := func(h hash.Hash64) func(int, *lu.Solver) {
		return func(i int, s *lu.Solver) { hashInts(h, i); hashSolver(h, s) }
	}
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		for _, ds := range []struct {
			name string
			ems  *graph.EMS
		}{{"directed", smallEMS(t)}, {"symmetric", symmetricEMS(t)}} {
			for _, retain := range []bool{false, true} {
				h := fnv.New64a()
				res, err := Run(ds.ems, alg, Options{Alpha: 0.95, Workers: 1, MeasureQuality: true, RetainFactors: retain, OnFactors: emit(h)})
				if err != nil {
					t.Fatalf("%s %s: %v", alg, ds.name, err)
				}
				hashResult(h, res)
				// Retained clones must carry the very bits the live solver
				// showed: both modes share one golden.
				check("run/"+string(alg)+"/"+ds.name, h)
			}
		}
	}
	for _, alg := range []Algorithm{CINC, CLUDE} {
		h := fnv.New64a()
		res, err := RunQC(symmetricEMS(t), alg, 0.1, Options{Workers: 1, MeasureQuality: true, OnFactors: emit(h)})
		if err != nil {
			t.Fatalf("QC %s: %v", alg, err)
		}
		hashResult(h, res)
		check("qc/"+string(alg), h)
	}
	initial, batches := randomEventStream(xrand.New(17), 100, 14, 12)
	egs := materialize(t, initial, batches)
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		h := fnv.New64a()
		st, err := Replay(egs, graph.RWRMatrix(0.85), alg, ReplayOptions{Alpha: 0.9, OnFactors: emit(h)})
		if err != nil {
			t.Fatalf("replay %s: %v", alg, err)
		}
		hashInts(h, int(st.Version), st.Clusters, st.StructRebuilds, st.Refactorizations,
			st.Bennett.Rank1Updates, st.Bennett.StepsTouched, st.Bennett.Dropped,
			st.DynamicInserts, st.DynamicScanSteps)
		check("replay/"+string(alg), h)
	}
}

// goldenBennettStats holds CLUDE's {Rank1Updates, StepsTouched, Dropped}
// over the generated sequences gen's TestGoldenDatasets pins (same
// generator configurations, same seeds), recorded at PR 20 — before
// rank1Static's inner loops became leaf kernels. A kernel that stopped a
// step early, walked one twice or sent a different step to the
// out-of-structure scan would move a count here before it moved a
// measurable factor bit.
//
// The two dblp entries were re-pinned once, on purpose, with
// goldenFactors' symmetric entries: under the minimum-cover split a
// DBLP-like symmetric delta needs about a quarter of the rank-1 terms
// and a third of the elimination steps. wiki/* and patent/* are
// directed and keep the original recording.
//
// Their StepsTouched were re-pinned a second time, on purpose, with the
// symmetric cross path: one rank-2 sweep per cover vertex visits the
// steps of a row term and a column term once, and about 45 % fewer steps
// in all. Rank1Updates still counts SplitTerms' terms and did not move.
var goldenBennettStats = map[string]bennett.Stats{
	"wiki/7":    {Rank1Updates: 518, StepsTouched: 29005},
	"wiki/1234": {Rank1Updates: 523, StepsTouched: 28077},
	"dblp/11":   {Rank1Updates: 168, StepsTouched: 5083}, // re-pinned from {631, 28695}: minimum-cover split; from 9551: symmetric cross path
	"dblp/4321": {Rank1Updates: 178, StepsTouched: 5542}, // re-pinned from {727, 33208}: minimum-cover split; from 10192: symmetric cross path
	"patent/17": {Rank1Updates: 192, StepsTouched: 1105},
	"patent/99": {Rank1Updates: 192, StepsTouched: 1107},
}

func TestGoldenBennettStats(t *testing.T) {
	check := func(name string, egs *graph.EGS, err error, derive graph.Deriver, alpha float64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(graph.DeriveEMS(egs, derive), CLUDE, Options{Alpha: alpha, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Clusters) == egs.Len() || res.Bennett.StepsTouched == 0 {
			t.Fatalf("%s: %d clusters over %d snapshots, %+v: no Bennett chain ran", name, len(res.Clusters), egs.Len(), res.Bennett)
		}
		if want := goldenBennettStats[name]; res.Bennett != want {
			t.Errorf("%q: %+v, golden %+v", name, res.Bennett, want)
		}
	}
	for _, seed := range []uint64{7, 1234} {
		egs, err := gen.WikiSim(gen.WikiConfig{N: 300, T: 20, InitialEdges: 840, FinalEdges: 1300, ChurnFrac: 0.25, EventRate: 0.2, Seed: seed})
		check(fmt.Sprint("wiki/", seed), egs, err, graph.RWRMatrix(0.85), 0.95)
	}
	for _, seed := range []uint64{11, 4321} {
		egs, err := gen.DBLPSim(gen.DBLPConfig{N: 300, T: 20, Communities: 3, InitialPapers: 260, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: seed})
		check(fmt.Sprint("dblp/", seed), egs, err, graph.SymmetricWalkMatrix(0.85), 0.95)
	}
	for _, seed := range []uint64{17, 99} {
		cfg := gen.DefaultPatentConfig()
		cfg.PatentsPerYear, cfg.Years, cfg.Seed = 4, 8, seed
		pd, err := gen.PatentSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A citation graph only grows: at 0.95 every year is its own
		// cluster and nothing is updated.
		check(fmt.Sprint("patent/", seed), pd.EGS, nil, graph.RWRMatrix(0.85), 0.6)
	}
}
