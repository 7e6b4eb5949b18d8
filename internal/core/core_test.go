package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// smallEMS derives a directed RWR EMS from a small synthetic EGS.
func smallEMS(t *testing.T) *graph.EMS {
	t.Helper()
	return graph.DeriveEMS(smallEGS(t), graph.RWRMatrix(0.85))
}

// smallEGS is smallEMS's graph sequence.
func smallEGS(t *testing.T) *graph.EGS {
	t.Helper()
	cfg := gen.SyntheticConfig{V: 120, EP: 1100, D: 4, K: 4, DeltaE: 15, T: 12, Seed: 3}
	egs, err := gen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return egs
}

// symmetricEMS derives a symmetric EMS for the QC tests.
func symmetricEMS(t *testing.T) *graph.EMS {
	t.Helper()
	return graph.DeriveEMS(symmetricEGS(t), graph.SymmetricWalkMatrix(0.9))
}

// symmetricEGS is symmetricEMS's graph sequence.
func symmetricEGS(t *testing.T) *graph.EGS {
	t.Helper()
	cfg := gen.DBLPConfig{
		N: 100, T: 10, Communities: 2,
		InitialPapers: 80, PapersPerDay: 4,
		MaxCoauthors: 3, CrossCommunity: 0.1, Seed: 5,
	}
	egs, err := gen.DBLPSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return egs
}

// replayed is egs's matrix sequence under d, replayed from its first
// snapshot and step events rather than derived whole.
func replayed(t *testing.T, egs *graph.EGS, d graph.Deriver) *graph.DeltaSequence {
	t.Helper()
	seq, err := graph.NewDeltaSequence(egs.Snapshots[0], graph.DeltaBatches(egs), d)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// checkSolutions verifies that the streamed solvers actually solve
// A_i·x = b for every snapshot.
func checkSolutions(t *testing.T, ems *graph.EMS, alg Algorithm, opt Options, runQC bool, beta float64) *Result {
	t.Helper()
	n := ems.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(n)
	}
	solved := make([]bool, ems.Len())
	opt.OnFactors = func(i int, s *lu.Solver) {
		x := s.Solve(b)
		r := ems.Matrices[i].MulVec(x)
		if d := sparse.NormInfDiff(r, b); d > 1e-8 {
			t.Errorf("%s: matrix %d residual %g", alg, i, d)
		}
		solved[i] = true
	}
	var res *Result
	var err error
	if runQC {
		res, err = RunQC(ems, alg, beta, opt)
	} else {
		res, err = Run(ems, alg, opt)
	}
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	for i, ok := range solved {
		if !ok {
			t.Fatalf("%s: matrix %d never streamed", alg, i)
		}
	}
	return res
}

func TestBFSolvesEverySnapshot(t *testing.T) {
	ems := smallEMS(t)
	res := checkSolutions(t, ems, BF, Options{}, false, 0)
	if len(res.SSPSizes) != ems.Len() {
		t.Fatal("BF must record SSP sizes")
	}
	if len(res.Clusters) != ems.Len() {
		t.Fatal("BF clusters must be singletons")
	}
}

func TestINCSolvesEverySnapshot(t *testing.T) {
	ems := smallEMS(t)
	res := checkSolutions(t, ems, INC, Options{MeasureQuality: true}, false, 0)
	if res.Refactorizations != 0 {
		t.Errorf("INC needed %d refactorizations", res.Refactorizations)
	}
	if len(res.Clusters) != 1 {
		t.Error("INC must use a single cluster")
	}
	if res.DynamicInserts == 0 {
		t.Error("INC on a drifting EMS should have inserted fill")
	}
}

func TestCINCSolvesEverySnapshot(t *testing.T) {
	ems := smallEMS(t)
	res := checkSolutions(t, ems, CINC, Options{Alpha: 0.9, MeasureQuality: true}, false, 0)
	if got := clustersCover(res, ems.Len()); !got {
		t.Error("CINC clusters do not partition the EMS")
	}
}

func TestCLUDESolvesEverySnapshot(t *testing.T) {
	ems := smallEMS(t)
	res := checkSolutions(t, ems, CLUDE, Options{Alpha: 0.9, MeasureQuality: true}, false, 0)
	if !clustersCover(res, ems.Len()) {
		t.Error("CLUDE clusters do not partition the EMS")
	}
	if res.DynamicInserts != 0 {
		t.Error("CLUDE must never touch a dynamic structure")
	}
	if res.Refactorizations != 0 {
		t.Errorf("CLUDE fell back to refactorization %d times — USSP did not cover the cluster", res.Refactorizations)
	}
}

func clustersCover(res *Result, T int) bool {
	at := 0
	for _, c := range res.Clusters {
		if c.Start != at {
			return false
		}
		at = c.End
	}
	return at == T
}

func TestQualityOrdering(t *testing.T) {
	// The paper's headline quality relation: BF (ql=0) ≤ CLUDE ≤ CINC ≤
	// INC on average.
	ems := smallEMS(t)
	bf, err := Run(ems, BF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(ems, INC, Options{MeasureQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	cinc, err := Run(ems, CINC, Options{Alpha: 0.95, MeasureQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	clude, err := Run(ems, CLUDE, Options{Alpha: 0.95, MeasureQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	qlINC := Mean(QualityLoss(inc.SSPSizes, bf.SSPSizes))
	qlCINC := Mean(QualityLoss(cinc.SSPSizes, bf.SSPSizes))
	qlCLUDE := Mean(QualityLoss(clude.SSPSizes, bf.SSPSizes))
	if qlINC < 0 || qlCINC < -0.05 || qlCLUDE < -0.05 {
		t.Errorf("quality losses suspiciously negative: inc=%v cinc=%v clude=%v", qlINC, qlCINC, qlCLUDE)
	}
	if qlCLUDE > qlINC+1e-9 {
		t.Errorf("CLUDE quality (%v) worse than INC (%v)", qlCLUDE, qlINC)
	}
}

func TestINCQualityDegradesAlongSequence(t *testing.T) {
	// Figure 5's phenomenon: ql(O*(A1), Ai) grows with i. Compare the
	// average of the last quarter against the first quarter.
	ems := smallEMS(t)
	bf, err := Run(ems, BF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(ems, INC, Options{MeasureQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	ql := QualityLoss(inc.SSPSizes, bf.SSPSizes)
	q := len(ql) / 4
	if q == 0 {
		t.Skip("sequence too short")
	}
	head := Mean(ql[:q])
	tail := Mean(ql[len(ql)-q:])
	if tail < head {
		t.Errorf("INC quality did not degrade: head %v tail %v", head, tail)
	}
	if math.Abs(ql[0]) > 1e-9 {
		t.Errorf("ql of first matrix should be 0 (own Markowitz order), got %v", ql[0])
	}
}

func TestAlphaOneDegeneratesToBFQuality(t *testing.T) {
	// α = 1: singleton clusters (while patterns differ), so CLUDE's
	// per-matrix orderings are plain Markowitz — zero quality loss.
	ems := smallEMS(t)
	bf, err := Run(ems, BF, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clude, err := Run(ems, CLUDE, Options{Alpha: 1.0, MeasureQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bf.SSPSizes {
		if clude.SSPSizes[i] != bf.SSPSizes[i] {
			// Identical successive patterns may merge; in that case the
			// union equals the member and quality still matches.
			t.Errorf("matrix %d: alpha=1 CLUDE ssp %d != BF %d", i, clude.SSPSizes[i], bf.SSPSizes[i])
		}
	}
}

func TestQCVariantsRespectBeta(t *testing.T) {
	ems := symmetricEMS(t)
	beta := 0.2
	star := StarSizes(ems)
	for _, alg := range []Algorithm{CINC, CLUDE} {
		res := checkSolutions(t, ems, alg, Options{MeasureQuality: true}, true, beta)
		ql := QualityLoss(res.SSPSizes, star)
		for i, q := range ql {
			if q > beta+1e-9 {
				t.Errorf("%s-QC: matrix %d quality loss %v exceeds beta %v", alg, i, q, beta)
			}
		}
		if !clustersCover(res, ems.Len()) {
			t.Errorf("%s-QC clusters do not partition", alg)
		}
	}
}

// TestStarSizesAreBF holds the quality reference to BF's own sizes on a
// symmetric DBLP EMS and on the directed tiny Wiki EMS: StarSizes runs
// Markowitz, which picks its elimination from the pattern, so it cannot
// hand a directed sequence the sizes of its symmetrized patterns.
func TestStarSizesAreBF(t *testing.T) {
	cfg, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	egs, err := gen.WikiSim(cfg.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	for name, ems := range map[string]*graph.EMS{
		"dblp": symmetricEMS(t),
		"wiki": graph.DeriveEMS(egs, graph.RWRMatrix(0.85)),
	} {
		bf, err := Run(ems, BF, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if star := StarSizes(ems); !slices.Equal(star, bf.SSPSizes) {
			t.Errorf("%s: StarSizes %v, BF SSPSizes %v", name, star, bf.SSPSizes)
		}
	}
}

func TestRunQCRejectsAsymmetric(t *testing.T) {
	ems := smallEMS(t) // directed RWR matrices are asymmetric
	if _, err := RunQC(ems, CLUDE, 0.1, Options{}); err == nil {
		t.Error("RunQC accepted an asymmetric EMS")
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	ems := smallEMS(t)
	if _, err := Run(ems, Algorithm("nope"), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestQualityLossHelpers(t *testing.T) {
	ql := QualityLoss([]int{30, 45}, []int{30, 30})
	if ql[0] != 0 || ql[1] != 0.5 {
		t.Errorf("QualityLoss = %v, want [0 0.5]", ql)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestPhaseTimesAccounted(t *testing.T) {
	ems := smallEMS(t)
	// Workers: 1 pins the sequential path, where the per-phase
	// breakdown and the wall clock measure the same execution (with
	// Workers > 1 the phases sum CPU time across the pool and may
	// legitimately exceed Wall).
	res, err := Run(ems, CLUDE, Options{Alpha: 0.95, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Total() <= 0 {
		t.Error("no phase time recorded")
	}
	if res.Times.Total() > res.Wall*2 {
		t.Error("phase times exceed wall clock implausibly")
	}

	// The parallel path must still account nonzero phase time.
	par, err := Run(ems, CLUDE, Options{Alpha: 0.95, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Times.Total() <= 0 {
		t.Error("no phase time recorded under a worker pool")
	}
}
