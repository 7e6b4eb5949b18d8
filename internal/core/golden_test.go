package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

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
var goldenFactors = map[string]uint64{
	"run/BF/directed":     0xf43de78b39ff0e23,
	"run/BF/symmetric":    0x78f28c465392d8fc,
	"run/INC/directed":    0x29f4a3ef747451ca,
	"run/INC/symmetric":   0x2271cdce75bdf73b,
	"run/CINC/directed":   0x229b4c82b8bed359,
	"run/CINC/symmetric":  0x5666d0c63c38b2b3,
	"run/CLUDE/directed":  0x43e09f0e3204a160,
	"run/CLUDE/symmetric": 0x315594bc516fe927,
	"qc/CINC":             0x12ae645580189a82,
	"qc/CLUDE":            0x5e74bde09f087a55,
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
