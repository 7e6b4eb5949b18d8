package lu_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/xrand"
)

// Benchmarks of the blocked substitution kernels the serving layer
// routes between: the scalar column-by-column sweep and the supernodal
// panel-packed path, on the community-structured factors the panel
// layer is built for. Run with -count=1 (CI does) — the packed set is
// value-frozen, so iterations are pure substitution.

// benchStaticFactors factorizes the last snapshot of a small DBLP-like
// stream under the Markowitz ordering (the bench suite's setup, scaled
// to test time).
func benchStaticFactors(b *testing.B) *lu.StaticFactors {
	b.Helper()
	egs, err := gen.DBLPSim(gen.DBLPConfig{
		N: 600, T: 80, Communities: 3, InitialPapers: 500,
		PapersPerDay: 4, MaxCoauthors: 7, CrossCommunity: 0.05, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85))
	a := ems.Matrices[ems.Len()-1]
	s, err := lu.FactorizeOrdered(a, order.Markowitz(a.Pattern()).Ordering)
	if err != nil {
		b.Fatal(err)
	}
	f, ok := s.F.(*lu.StaticFactors)
	if !ok {
		b.Fatalf("want StaticFactors, got %T", s.F)
	}
	return f
}

func benchRHS(n, k int) [][]float64 {
	rng := xrand.New(177)
	xs := make([][]float64, k)
	for r := range xs {
		xs[r] = make([]float64, n)
		xs[r][rng.Intn(n)] = 0.15
	}
	return xs
}

func benchmarkSubstitution(b *testing.B, k int, panels bool) {
	f := benchStaticFactors(b)
	rhs := benchRHS(f.Dim(), k)
	work := make([][]float64, k)
	for r := range work {
		work[r] = make([]float64, f.Dim())
	}
	var ps *lu.PanelSet
	var ws lu.SolveWorkspace
	if panels {
		ps = lu.NewPanelSet(f, lu.DefaultPanelRelax, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range work {
			copy(work[r], rhs[r])
		}
		if panels {
			ps.SolveBlockInPlace(work, &ws)
		} else {
			f.SolveBlockInPlace(work)
		}
	}
}

func BenchmarkScalarBlockK8(b *testing.B) { benchmarkSubstitution(b, 8, false) }
func BenchmarkPanelBlockK8(b *testing.B)  { benchmarkSubstitution(b, 8, true) }

func BenchmarkScalarBlockK16(b *testing.B) { benchmarkSubstitution(b, 16, false) }
func BenchmarkPanelBlockK16(b *testing.B)  { benchmarkSubstitution(b, 16, true) }
