package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// firstCase is one engine entry point over one seeded EMS.
type firstCase struct {
	name string
	ems  *graph.EMS
	run  func(Options) (*Result, error)
}

func firstCases(t *testing.T) []firstCase {
	directed, symmetric := smallEMS(t), symmetricEMS(t)
	var cases []firstCase
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		cases = append(cases, firstCase{string(alg), directed, func(o Options) (*Result, error) {
			o.Alpha = 0.95
			return Run(directed, alg, o)
		}})
	}
	for _, alg := range []Algorithm{CINC, CLUDE} {
		cases = append(cases, firstCase{string(alg) + "-QC", symmetric, func(o Options) (*Result, error) {
			return RunQC(symmetric, alg, 0.1, o)
		}})
	}
	return cases
}

// snapshotHashes runs c and returns the indices OnFactors fired for, in
// firing order, with the golden hash of each emitted solver.
func snapshotHashes(c firstCase, o Options) ([]int, map[int]uint64, *Result, error) {
	var seen []int
	hashes := map[int]uint64{}
	o.OnFactors = func(i int, s *lu.Solver) {
		h := fnv.New64a()
		hashSolver(h, s)
		seen = append(seen, i)
		hashes[i] = h.Sum64()
	}
	res, err := c.run(o)
	return seen, hashes, res, err
}

// chainTerms counts the rank-1 terms of cluster cl's Bennett chain. A
// delta splits along its thinner dimension, and a permutation changes
// neither dimension's count, so the count needs no ordering.
func chainTerms(ems *graph.EMS, cl cluster.Cluster) int {
	n := 0
	for i := cl.Start + 1; i < cl.End; i++ {
		n += len(bennett.SplitTerms(sparse.Delta(ems.Matrices[i-1], ems.Matrices[i])))
	}
	return n
}

// TestFirstDecomposesOnlyTheTail is Options.First's contract, for every
// engine entry point and both execution paths: OnFactors fires for
// exactly First..T-1 in order with the very factor bits of the full
// run, the plan is the full run's, and the clusters that end at or
// before First leave no trace — no structure size, no SSP size, no
// Bennett term.
func TestFirstDecomposesOnlyTheTail(t *testing.T) {
	for _, c := range firstCases(t) {
		T := c.ems.Len()
		_, fullHashes, full, err := snapshotHashes(c, Options{Workers: 1, MeasureQuality: true})
		if err != nil {
			t.Fatalf("%s full run: %v", c.name, err)
		}
		total := 0
		for _, cl := range full.Clusters {
			total += chainTerms(c.ems, cl)
		}
		if full.Bennett.Rank1Updates != total || full.Refactorizations != 0 {
			t.Fatalf("%s full run: %d rank-1 updates and %d refactorizations, want the chains' %d terms and none",
				c.name, full.Bennett.Rank1Updates, full.Refactorizations, total)
		}

		// 0, T-1 and, for the last two clusters, the first index and one
		// past the start: mid is the latest of the latter, and for the
		// clustered algorithms it must have a whole cluster before it to
		// skip.
		firsts := map[int]bool{0: true, T - 1: true}
		mid, skipsBeforeMid := -1, false
		for ci := max(0, len(full.Clusters)-2); ci < len(full.Clusters); ci++ {
			cl := full.Clusters[ci]
			firsts[cl.Start] = true
			if cl.Len() >= 2 {
				mid, skipsBeforeMid = cl.Start+cl.Len()/2, ci > 0
				firsts[mid] = true
			}
		}
		if c.name != "BF" && c.name != "INC" && !skipsBeforeMid {
			t.Fatalf("%s: clusters %v leave First no cluster to skip before entering one past its start", c.name, full.Clusters)
		}

		for first := range firsts {
			for _, workers := range []int{1, 4} {
				seen, hashes, res, err := snapshotHashes(c, Options{Workers: workers, MeasureQuality: true, First: first})
				if err != nil {
					t.Fatalf("%s First=%d w=%d: %v", c.name, first, workers, err)
				}
				if len(seen) != T-first {
					t.Fatalf("%s First=%d w=%d: OnFactors fired for %v, want %d..%d", c.name, first, workers, seen, first, T-1)
				}
				for k, i := range seen {
					if i != first+k {
						t.Fatalf("%s First=%d w=%d: OnFactors fired for %v, want %d..%d in order", c.name, first, workers, seen, first, T-1)
					}
					if hashes[i] != fullHashes[i] {
						t.Errorf("%s First=%d w=%d: snapshot %d hashes %#x, %#x in the full run", c.name, first, workers, i, hashes[i], fullHashes[i])
					}
				}
				if !reflect.DeepEqual(res.Clusters, full.Clusters) {
					t.Errorf("%s First=%d w=%d: clusters %v, full run %v", c.name, first, workers, res.Clusters, full.Clusters)
				}
				terms := 0
				for ci, cl := range full.Clusters {
					wantSize := full.StructureSizes[ci]
					if cl.End <= first {
						wantSize = 0
					} else {
						terms += chainTerms(c.ems, cl)
					}
					if res.StructureSizes[ci] != wantSize {
						t.Errorf("%s First=%d w=%d: cluster %d %v structure size %d, want %d", c.name, first, workers, ci, cl, res.StructureSizes[ci], wantSize)
					}
					for i := cl.Start; i < cl.End; i++ {
						wantSSP := full.SSPSizes[i]
						if cl.End <= first {
							wantSSP = 0
						}
						if res.SSPSizes[i] != wantSSP {
							t.Errorf("%s First=%d w=%d: SSP size of matrix %d is %d, want %d", c.name, first, workers, i, res.SSPSizes[i], wantSSP)
						}
					}
				}
				if res.Bennett.Rank1Updates != terms || res.Refactorizations != 0 {
					t.Errorf("%s First=%d w=%d: %d rank-1 updates and %d refactorizations, want the executed chains' %d terms and none",
						c.name, first, workers, res.Bennett.Rank1Updates, res.Refactorizations, terms)
				}
			}
		}

		// Cancelled from the first callback of a run that enters a cluster
		// past its start: the context's error, and still nothing below
		// First.
		if mid < 0 {
			continue
		}
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var fired, below atomic.Int32
			_, err := c.run(Options{Workers: workers, First: mid, Context: ctx, OnFactors: func(i int, s *lu.Solver) {
				if i < mid {
					below.Add(1)
				}
				fired.Add(1)
				cancel()
			}})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s First=%d w=%d: cancelled run returned %v, want context.Canceled", c.name, mid, workers, err)
			}
			if below.Load() != 0 || fired.Load() == 0 {
				t.Errorf("%s First=%d w=%d: %d callbacks, %d of them below First; want the one that cancels and none below", c.name, mid, workers, fired.Load(), below.Load())
			}
		}
	}
}

// TestFirstOutOfRangeRejected: a First outside [0, T) is an error that
// names both numbers, not an empty run.
func TestFirstOutOfRangeRejected(t *testing.T) {
	for _, c := range firstCases(t) {
		T := c.ems.Len()
		for _, first := range []int{-1, T, T + 5} {
			fired := false
			_, err := c.run(Options{First: first, OnFactors: func(int, *lu.Solver) { fired = true }})
			if err == nil || fired {
				t.Fatalf("%s First=%d of %d: err %v, callback fired %v; want an error and no callback", c.name, first, T, err, fired)
			}
			if want := fmt.Sprintf("First %d outside [0, %d)", first, T); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", c.name, err, want)
			}
		}
	}
}
