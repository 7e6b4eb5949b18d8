package core

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bennett"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
)

// firstCase is one engine entry point over one seeded EMS, and over the
// same matrices replayed from the EMS's first snapshot and step events.
type firstCase struct {
	name  string
	ems   *graph.EMS
	delta graph.Sequence
	run   func(graph.Sequence, Options) (*Result, error)
	// source is the RWR source of the right-hand side every emitted
	// solver solves: the densest row of the first matrix, so the solve
	// reaches past the source itself.
	source int
	// unionOrds, for the union-ordered entry points (CLUDE, CLUDE-QC),
	// returns each planned cluster's O∪ from public calls; nil for the
	// entry points whose chains open at their cluster's start.
	unionOrds func(t *testing.T, clusters []cluster.Cluster) []sparse.Ordering
	// residualBound, when nonzero, bounds the scaled residual of the
	// solve of rwrRHS at First and T−1 in every run; elsewhere it is
	// logged only.
	residualBound float64
}

func firstCases(t *testing.T) []firstCase {
	walk, sym := graph.RWRMatrix(0.85), graph.SymmetricWalkMatrix(0.9)
	directedEGS, symmetricEGS := smallEGS(t), symmetricEGS(t)
	directed, symmetric := graph.DeriveEMS(directedEGS, walk), graph.DeriveEMS(symmetricEGS, sym)
	directedDelta, symmetricDelta := replayed(t, directedEGS, walk), replayed(t, symmetricEGS, sym)
	var cases []firstCase
	for _, alg := range []Algorithm{BF, INC, CINC, CLUDE} {
		c := firstCase{name: string(alg), ems: directed, delta: directedDelta, source: densestRow(directed.Matrices[0]), run: func(seq graph.Sequence, o Options) (*Result, error) {
			o.Alpha = 0.95
			return Run(seq, alg, o)
		}}
		if alg == INC {
			c.residualBound = incResidualBound
		}
		if alg == CLUDE {
			c.residualBound = residualBound
			c.unionOrds = func(_ *testing.T, clusters []cluster.Cluster) []sparse.Ordering {
				ords := make([]sparse.Ordering, len(clusters))
				for k, cl := range clusters {
					ords[k] = order.Markowitz(cl.Union).Ordering
				}
				return ords
			}
		}
		cases = append(cases, c)
	}
	for _, alg := range []Algorithm{CINC, CLUDE} {
		c := firstCase{name: string(alg) + "-QC", ems: symmetric, delta: symmetricDelta, source: densestRow(symmetric.Matrices[0]), run: func(seq graph.Sequence, o Options) (*Result, error) {
			return RunQC(seq, alg, 0.1, o)
		}}
		if alg == CLUDE {
			c.residualBound = residualBound
			// β-clustering orders as it clusters, so O∪ is its output.
			c.unionOrds = func(t *testing.T, clusters []cluster.Cluster) []sparse.Ordering {
				pats := make([]*sparse.Pattern, symmetric.Len())
				for i, a := range symmetric.Matrices {
					pats[i] = a.Pattern()
				}
				qcs := cluster.BetaCLUDE(pats, 0.1, nil)
				ords := make([]sparse.Ordering, len(qcs))
				for k, qc := range qcs {
					if k >= len(clusters) || qc.Cluster.Start != clusters[k].Start || qc.Cluster.End != clusters[k].End {
						t.Fatalf("BetaCLUDE planned %v, the run %v", qc.Cluster, clusters)
					}
					ords[k] = qc.Ordering
				}
				return ords
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// densestRow is the row of a that stores the most entries.
func densestRow(a *sparse.CSR) int {
	best, most := 0, -1
	for i := range a.N() {
		if cols, _ := a.Row(i); len(cols) > most {
			best, most = i, len(cols)
		}
	}
	return best
}

// emitted is what OnFactors was handed in one run: the indices in firing
// order, the golden hash of each solver and its solve of rwrRHS.
type emitted struct {
	seen   []int
	hashes map[int]uint64
	x      map[int][]float64
}

// rwrRHS is RWR's right-hand side for source u, (1 − c)·e_u.
func rwrRHS(n, u int) []float64 { return sparse.Basis(n, u, 0.15) }

// emissions runs c over seq and records what OnFactors was handed.
func emissions(c firstCase, seq graph.Sequence, o Options) (emitted, *Result, error) {
	em := emitted{hashes: map[int]uint64{}, x: map[int][]float64{}}
	o.OnFactors = func(i int, s *lu.Solver) {
		h := fnv.New64a()
		hashSolver(h, s)
		em.seen = append(em.seen, i)
		em.hashes[i] = h.Sum64()
		em.x[i] = s.Solve(rwrRHS(seq.N(), c.source))
	}
	res, err := c.run(seq, o)
	return em, res, err
}

// chainTerms counts the rank-1 terms of cluster cl's Bennett chain from
// member open on. A delta splits along its thinner dimension, and a
// permutation changes neither dimension's count, so the count needs no
// ordering.
func chainTerms(ems *graph.EMS, cl cluster.Cluster, open int) int {
	n := 0
	for i := open + 1; i < cl.End; i++ {
		n += len(bennett.SplitTerms(sparse.Delta(ems.Matrices[i-1], ems.Matrices[i])))
	}
	return n
}

// refChain is cluster cl's union-ordered chain opened at member open,
// built from public calls alone: the static structure of the USSP of
// cl's union under ord, a full decomposition of A_open in it (Theorem 1:
// it holds every member's fill), then one bennett.ApplyTerms per step.
// It records the golden hash of the solver at every member from open on
// and returns the rank-1 terms it applied.
func refChain(t *testing.T, ems *graph.EMS, cl cluster.Cluster, ord sparse.Ordering, open int, hashes map[int]uint64) int {
	t.Helper()
	colInv := ord.Col.Inverse()
	static := lu.NewStaticFactors(lu.Symbolic(cl.Union.Permute(ord)))
	prev := ems.Matrices[open].PermuteInv(ord, colInv)
	if err := static.FactorizeWith(prev, &lu.Workspace{}); err != nil {
		t.Fatalf("reference chain of %v opened at %d: %v", cl, open, err)
	}
	s := &lu.Solver{F: static, O: ord}
	var ws bennett.Workspace
	var st bennett.Stats
	for i := open; i < cl.End; i++ {
		if i > open {
			cur := ems.Matrices[i].PermuteInv(ord, colInv)
			if err := ws.ApplyTerms(static, bennett.SplitTerms(sparse.Delta(prev, cur)), &st); err != nil {
				t.Fatalf("reference chain of %v, step %d: %v", cl, i, err)
			}
			prev = cur
		}
		h := fnv.New64a()
		hashSolver(h, s)
		hashes[i] = h.Sum64()
	}
	return st.Rank1Updates
}

// normInf is ‖x‖∞.
func normInf(x []float64) float64 {
	return sparse.NormInfDiff(x, make([]float64, len(x)))
}

// scaledResidual is the normwise backward error of x as a solution of
// a·x = b: ‖a·x − b‖∞ / (‖a‖∞‖x‖∞ + ‖b‖∞).
func scaledResidual(a *sparse.CSR, x, b []float64) float64 {
	normA := 0.0
	for i := range a.N() {
		_, vals := a.Row(i)
		row := 0.0
		for _, v := range vals {
			row += math.Abs(v)
		}
		normA = max(normA, row)
	}
	return sparse.NormInfDiff(a.MulVec(x), b) / (normA*normInf(x) + normInf(b))
}

// The bounds below were fixed before the test first ran. A union chain
// opened at First computes the exact LU of A_First rather than Bennett's
// walk up to it, so its factors move by rounding from the First = 0
// run's; agreeBound bounds that move in the solve of rwrRHS, relative in
// the ∞-norm. residualBound bounds the scaled residual of that solve at
// First and at T−1, in every run.
// incResidualBound bounds the same residual under INC, whose one chain
// runs the whole sequence on the dynamic linked lists and leaves out
// the list fill they do not splice (Stats.Dropped): 100× under the 1e-9
// at which the LUDEM benchmark cross-checks INC's answers. INC read
// 8.8e-13 when it was fixed.
const (
	agreeBound       = 1e-13
	residualBound    = 1e-13
	incResidualBound = 1e-10
)

// firstReadings are the largest values one case read against the two
// bounds: the agreement with the First = 0 run, and the scaled residuals
// at First and T−1 of the runs with First > 0 and of the First = 0 run.
type firstReadings struct {
	agree, residual, fullResidual float64
}

// TestFirstDecomposesOnlyTheTail is Options.First's contract, for every
// engine entry point, both execution paths and both kinds of sequence:
// OnFactors fires for exactly First..T-1 in order, the plan is the full
// run's, and the clusters that end at or before First leave no trace —
// no structure size, no SSP size, no Bennett term. The chains of BF,
// INC, CINC and CINC-QC open at their cluster's start, so every emitted
// factor carries the bits of the full run over the EMS. CLUDE's and
// CLUDE-QC's open at max(start, First): every emitted factor carries the
// bits of refChain opened there, their Bennett terms are that chain's,
// and their solves agree with the full run's within agreeBound. A First
// inside a CLUDE-QC cluster is where the β planner must fetch A_First,
// not the cluster's start, for the chain to open on.
func TestFirstDecomposesOnlyTheTail(t *testing.T) {
	for _, c := range firstCases(t) {
		T := c.ems.Len()
		fullEm, full, err := emissions(c, c.ems, Options{Workers: 1, MeasureQuality: true})
		if err != nil {
			t.Fatalf("%s full run: %v", c.name, err)
		}
		total := 0
		for _, cl := range full.Clusters {
			total += chainTerms(c.ems, cl, cl.Start)
		}
		if full.Bennett.Rank1Updates != total || full.Refactorizations != 0 {
			t.Fatalf("%s full run: %d rank-1 updates and %d refactorizations, want the chains' %d terms and none",
				c.name, full.Bennett.Rank1Updates, full.Refactorizations, total)
		}
		var ords []sparse.Ordering
		if c.unionOrds != nil {
			ords = c.unionOrds(t, full.Clusters)
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

		var read firstReadings
		for first := range firsts {
			// What every run from first on must emit, and the rank-1
			// terms its chains apply.
			want, terms := fullEm.hashes, 0
			if ords != nil {
				want = map[int]uint64{}
			}
			for ci, cl := range full.Clusters {
				if cl.End <= first {
					continue
				}
				if ords == nil {
					terms += chainTerms(c.ems, cl, cl.Start)
					continue
				}
				open := max(cl.Start, first)
				n := refChain(t, c.ems, cl, ords[ci], open, want)
				if n != chainTerms(c.ems, cl, open) {
					t.Fatalf("%s: reference chain of %v from %d applied %d terms, want %d", c.name, cl, open, n, chainTerms(c.ems, cl, open))
				}
				terms += n
			}
			if first == 0 && !maps.Equal(want, fullEm.hashes) {
				t.Fatalf("%s: the reference chains opened at their starts do not carry the full run's bits", c.name)
			}
			for _, sq := range []struct {
				kind string
				seq  graph.Sequence
			}{{"EMS", c.ems}, {"replayed", c.delta}} {
				for _, workers := range []int{1, 4} {
					r := firstRun(t, c, sq.kind, sq.seq, first, workers, full, fullEm, want, terms)
					read.agree, read.residual, read.fullResidual = max(read.agree, r.agree), max(read.residual, r.residual), max(read.fullResidual, r.fullResidual)
				}
			}
		}
		bound := residualBound
		if c.residualBound > 0 {
			bound = c.residualBound
		}
		t.Logf("%s: largest relative move from the First = 0 run %.3g (bound %g); largest scaled residual at First and T-1 %.3g, the First = 0 run's at the same snapshots %.3g (bound %g)",
			c.name, read.agree, agreeBound, read.residual, read.fullResidual, bound)
		if c.name == "INC" {
			t.Logf("INC: list fill left out of the First = 0 run (Bennett.Dropped) %d", full.Bennett.Dropped)
		}
	}
}

// firstRun runs c over seq from first on with the given workers and
// holds it to the hashes want, the full run's plan and sizes, the rank-1
// terms of the chains that run, agreeBound and c.residualBound. It returns
// what it read against the bounds.
func firstRun(t *testing.T, c firstCase, kind string, seq graph.Sequence, first, workers int, full *Result, fullEm emitted, want map[int]uint64, terms int) firstReadings {
	t.Helper()
	T := seq.Len()
	em, res, err := emissions(c, seq, Options{Workers: workers, MeasureQuality: true, First: first})
	if err != nil {
		t.Fatalf("%s %s First=%d w=%d: %v", c.name, kind, first, workers, err)
	}
	if len(em.seen) != T-first {
		t.Fatalf("%s %s First=%d w=%d: OnFactors fired for %v, want %d..%d", c.name, kind, first, workers, em.seen, first, T-1)
	}
	var read firstReadings
	for k, i := range em.seen {
		if i != first+k {
			t.Fatalf("%s %s First=%d w=%d: OnFactors fired for %v, want %d..%d in order", c.name, kind, first, workers, em.seen, first, T-1)
		}
		if em.hashes[i] != want[i] {
			t.Errorf("%s %s First=%d w=%d: snapshot %d hashes %#x, want %#x", c.name, kind, first, workers, i, em.hashes[i], want[i])
		}
		rel := sparse.NormInfDiff(em.x[i], fullEm.x[i]) / normInf(fullEm.x[i])
		if rel > agreeBound {
			t.Errorf("%s %s First=%d w=%d: snapshot %d solves %.3g from the First = 0 run, relative; bound %g", c.name, kind, first, workers, i, rel, agreeBound)
		}
		read.agree = max(read.agree, rel)
	}
	for _, i := range []int{first, T - 1} {
		a := c.ems.Matrices[i]
		b := rwrRHS(a.N(), c.source)
		r, fr := scaledResidual(a, em.x[i], b), scaledResidual(a, fullEm.x[i], b)
		if c.residualBound > 0 && (r > c.residualBound || fr > c.residualBound) {
			t.Errorf("%s %s First=%d w=%d: snapshot %d scaled residual %.3g (First = 0 run %.3g); bound %g", c.name, kind, first, workers, i, r, fr, c.residualBound)
		}
		read.residual, read.fullResidual = max(read.residual, r), max(read.fullResidual, fr)
	}
	if !reflect.DeepEqual(res.Clusters, full.Clusters) {
		t.Errorf("%s %s First=%d w=%d: clusters %v, full run %v", c.name, kind, first, workers, res.Clusters, full.Clusters)
	}
	for ci, cl := range full.Clusters {
		wantSize := full.StructureSizes[ci]
		if cl.End <= first {
			wantSize = 0
		}
		if res.StructureSizes[ci] != wantSize {
			t.Errorf("%s %s First=%d w=%d: cluster %d %v structure size %d, want %d", c.name, kind, first, workers, ci, cl, res.StructureSizes[ci], wantSize)
		}
		for i := cl.Start; i < cl.End; i++ {
			wantSSP := full.SSPSizes[i]
			if cl.End <= first {
				wantSSP = 0
			}
			if res.SSPSizes[i] != wantSSP {
				t.Errorf("%s %s First=%d w=%d: SSP size of matrix %d is %d, want %d", c.name, kind, first, workers, i, res.SSPSizes[i], wantSSP)
			}
		}
	}
	if res.Bennett.Rank1Updates != terms || res.Refactorizations != 0 {
		t.Errorf("%s %s First=%d w=%d: %d rank-1 updates and %d refactorizations, want the executed chains' %d terms and none",
			c.name, kind, first, workers, res.Bennett.Rank1Updates, res.Refactorizations, terms)
	}
	return read
}

// TestFirstOutOfRangeRejected: a First outside [0, T) is an error that
// names both numbers, not an empty run.
func TestFirstOutOfRangeRejected(t *testing.T) {
	for _, c := range firstCases(t) {
		T := c.ems.Len()
		for _, first := range []int{-1, T, T + 5} {
			fired := false
			_, err := c.run(c.ems, Options{First: first, OnFactors: func(int, *lu.Solver) { fired = true }})
			if err == nil || fired {
				t.Fatalf("%s First=%d of %d: err %v, callback fired %v; want an error and no callback", c.name, first, T, err, fired)
			}
			if want := fmt.Sprintf("First %d outside [0, %d)", first, T); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", c.name, err, want)
			}
		}
	}
}

// seqRead is one read of a sequence: a step, or a whole matrix.
type seqRead struct {
	i    int
	step bool
}

// countingSequence records every read, in order.
type countingSequence struct {
	graph.Sequence
	mu    sync.Mutex
	reads []seqRead
}

func (s *countingSequence) record(r seqRead) {
	s.mu.Lock()
	s.reads = append(s.reads, r)
	s.mu.Unlock()
}

func (s *countingSequence) Matrix(i int) *sparse.CSR {
	s.record(seqRead{i: i})
	return s.Sequence.Matrix(i)
}

func (s *countingSequence) Step(i int, d *sparse.StepDelta) {
	s.record(seqRead{i: i, step: true})
	s.Sequence.Step(i, d)
}

// TestRunReadsTheSequenceOnce pins what Run reads of a sequence without
// measuring memory: under CLUDE and CINC with First inside the last
// cluster (and a whole cluster before it), the planner reads the steps
// 1..T-1 once each, ascending, and a matrix whole exactly where it
// opens a cluster or a chain — A_0, every later cluster's start and,
// under CLUDE, A_First — right after that matrix's step. After it,
// nothing is read but the start of a cluster that is decomposed —
// nothing below the start of the cluster that covers First, and no step.
func TestRunReadsTheSequenceOnce(t *testing.T) {
	egs := smallEGS(t)
	for _, alg := range []Algorithm{CINC, CLUDE} {
		full, err := Run(smallEMS(t), alg, Options{Alpha: 0.95, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		last := full.Clusters[len(full.Clusters)-1]
		if len(full.Clusters) < 2 || last.Len() < 2 {
			t.Fatalf("%s: clusters %v leave no cluster to skip before a First past the last one's start", alg, full.Clusters)
		}
		first := last.Start + 1
		cover := cluster.Covering(full.Clusters, first)
		var planning []seqRead
		for i := range full.T {
			if i > 0 {
				planning = append(planning, seqRead{i: i, step: true})
			}
			if full.Clusters[cluster.Covering(full.Clusters, i)].Start == i || (alg == CLUDE && i == first) {
				planning = append(planning, seqRead{i: i})
			}
		}
		for _, workers := range []int{1, 4} {
			seq := &countingSequence{Sequence: replayed(t, egs, graph.RWRMatrix(0.85))}
			if _, err := Run(seq, alg, Options{Alpha: 0.95, Workers: workers, First: first}); err != nil {
				t.Fatal(err)
			}
			if len(seq.reads) < len(planning) || !slices.Equal(seq.reads[:len(planning)], planning) {
				t.Fatalf("%s w=%d: reads %v, want %v before anything else", alg, workers, seq.reads, planning)
			}
			for _, r := range seq.reads[len(planning):] {
				ci := cluster.Covering(full.Clusters, r.i)
				if r.step || ci < cover || full.Clusters[ci].Start != r.i {
					t.Errorf("%s w=%d: read %+v after planning, which is no start of a cluster from %v on", alg, workers, r, full.Clusters[cover])
				}
			}
		}
	}
}

// TestUnionPlanKeepsWhatItsChainsRead pins what a plan holds under union
// ordering with First inside a cluster: the matrices kept are exactly
// A_First and the starts of the clusters after it, and no step delta at
// or before First is kept, since no chain applies one. CINC's plan keeps
// the straddled cluster's start and every step from the first on.
func TestUnionPlanKeepsWhatItsChainsRead(t *testing.T) {
	directed, symmetric := smallEMS(t), symmetricEMS(t)
	for _, c := range []struct {
		name  string
		seq   *graph.EMS
		union bool
		pl    planner
	}{
		{"CINC", directed, false, alphaPlanner{label: "CINC", alpha: 0.95}},
		{"CLUDE", directed, true, alphaPlanner{label: "CLUDE", alpha: 0.95, useUnion: true}},
		{"CLUDE-QC", symmetric, true, betaPlanner{label: "CLUDE-QC", beta: 0.1, useUnion: true}},
	} {
		full, err := c.pl.plan(newEngine(c.seq, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if len(full.jobs) < 3 || full.jobs[len(full.jobs)-2].cl.Len() < 2 {
			t.Fatalf("%s: %d clusters leave First no cluster to skip before entering one past its start", c.name, len(full.jobs))
		}
		straddled, last := full.jobs[len(full.jobs)-2].cl, full.jobs[len(full.jobs)-1].cl
		first := straddled.Start + 1
		pl, err := c.pl.plan(newEngine(c.seq, Options{First: first}))
		if err != nil {
			t.Fatal(err)
		}
		open, keepFrom := straddled.Start, 1
		if c.union {
			open, keepFrom = first, first+1
		}
		for i, a := range pl.starts {
			if want := i == open || i == last.Start; (a != nil) != want {
				t.Errorf("%s First=%d: matrix %d kept %v, want %v", c.name, first, i, a != nil, want)
			}
		}
		for i, d := range pl.deltas {
			want := full.deltas[i]
			if i < keepFrom {
				want = nil
			}
			if !slices.Equal(d, want) {
				t.Errorf("%s First=%d: step %d keeps %d delta entries, want %d", c.name, first, i, len(d), len(want))
			}
		}
	}
}
