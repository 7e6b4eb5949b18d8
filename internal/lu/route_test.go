package lu_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
)

// TestSymmetricRoutes runs BF and CLUDE over a tiny DBLP EMS, whose
// matrices are symmetric in pattern and value, and over the tiny Wiki
// EMS, whose arcs are directed. On DBLP every stage takes its symmetric
// route: every matrix BF orders has a symmetric pattern (Markowitz's
// symmetric elimination), every full decomposition of BF and CLUDE
// takes the mirrored Crout, and every quality-ruler call on a CLUDE
// ordering counts through the elimination tree. On Wiki none does.
func TestSymmetricRoutes(t *testing.T) {
	cfg, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	egs, err := gen.DBLPSim(cfg.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		ems       *graph.EMS
		symmetric bool
	}{
		{"dblp", graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85)), true},
		{"wiki", testEMS(t), false},
	} {
		ems := tc.ems
		for i, a := range ems.Matrices {
			if a.Pattern().Symmetric() != tc.symmetric {
				t.Fatalf("%s matrix %d: symmetric pattern %v, want %v", tc.name, i, !tc.symmetric, tc.symmetric)
			}
		}
		for _, alg := range []core.Algorithm{core.BF, core.CLUDE} {
			solvers := make([]*lu.Solver, ems.Len())
			res, err := core.Run(ems, alg, core.Options{Alpha: 0.9, Workers: 1, OnFactors: func(i int, s *lu.Solver) {
				solvers[i] = s.Clone()
			}})
			if err != nil {
				t.Fatal(err)
			}
			decompositions := 0
			for _, cl := range res.Clusters {
				for i := cl.Start; i < cl.End; i++ {
					s := solvers[i]
					if alg == core.BF || i == cl.Start {
						decompositions++
						a := ems.Matrices[i].Permute(s.O)
						if got := lu.MirroredRoute(s.F.(*lu.StaticFactors), a); got != tc.symmetric {
							t.Errorf("%s %s matrix %d: mirrored Crout %v, want %v", tc.name, alg, i, got, tc.symmetric)
						}
					}
					if alg == core.CLUDE {
						if got := lu.EtreeRoute(ems.Matrices[i].Pattern(), s.O); got != tc.symmetric {
							t.Errorf("%s CLUDE matrix %d: elimination-tree count %v, want %v", tc.name, i, got, tc.symmetric)
						}
					}
				}
			}
			if alg == core.BF && decompositions != ems.Len() {
				t.Fatalf("%s BF: %d decompositions over %d matrices", tc.name, decompositions, ems.Len())
			}
		}
	}
}
