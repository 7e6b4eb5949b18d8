package graph_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// sameBits reports whether a and b store the same entries with the same
// value bits, and says where they first differ when they do not.
func sameBits(a, b *sparse.CSR) error {
	ap, ac, av := a.Arrays()
	bp, bc, bv := b.Arrays()
	if !slices.Equal(ap, bp) || !slices.Equal(ac, bc) {
		return fmt.Errorf("patterns differ")
	}
	for k := range av {
		if math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
			return fmt.Errorf("entry %d is %v, want %v", k, av[k], bv[k])
		}
	}
	return nil
}

// TestDeltaSequenceIsDeriveEMS: replayed from the first snapshot and
// DeltaBatches, every generator's tiny sequence derives matrix for
// matrix the bits DeriveEMS derives from the snapshots, read front to
// back and read in a shuffled order that makes the builder replay.
func TestDeltaSequenceIsDeriveEMS(t *testing.T) {
	c, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := gen.WikiSim(c.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := gen.DBLPSim(c.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := gen.Synthetic(c.Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := gen.PatentSim(c.Patent)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		egs  *graph.EGS
		der  graph.Deriver
	}{
		{"wiki", wiki, graph.RWRMatrix(0.85)},
		{"dblp", dblp, graph.SymmetricWalkMatrix(0.85)},
		{"dblp/laplacian", dblp, graph.LaplacianMatrix(0.5)},
		{"synthetic", syn, graph.RWRMatrix(0.85)},
		{"patent", pat.EGS, graph.RWRMatrix(0.85)},
	} {
		ems := graph.DeriveEMS(d.egs, d.der)
		seq, err := graph.NewDeltaSequence(d.egs.Snapshots[0], graph.DeltaBatches(d.egs), d.der)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Len() != ems.Len() || seq.N() != ems.N() {
			t.Fatalf("%s: %d matrices of order %d, want %d of order %d", d.name, seq.Len(), seq.N(), ems.Len(), ems.N())
		}
		forward := make([]int, seq.Len())
		for i := range forward {
			forward[i] = i
		}
		for name, order := range map[string][]int{"forward": forward, "shuffled": xrand.New(5).Perm(seq.Len())} {
			for _, i := range order {
				if err := sameBits(seq.Matrix(i), ems.Matrices[i]); err != nil {
					t.Errorf("%s, %s reads: matrix %d: %v", d.name, name, i, err)
				}
			}
		}
	}
}

// sameStep reports whether got holds want's entries — positions and
// value bits, in order — and want's Added and Removed lists, and says
// where they first differ when it does not.
func sameStep(got, want *sparse.StepDelta) error {
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for k, w := range want.Entries {
		g := got.Entries[k]
		if g.Row != w.Row || g.Col != w.Col || math.Float64bits(g.Val) != math.Float64bits(w.Val) {
			return fmt.Errorf("entry %d is %+v, want %+v", k, g, w)
		}
	}
	if !slices.Equal(got.Added, want.Added) {
		return fmt.Errorf("added %v, want %v", got.Added, want.Added)
	}
	if !slices.Equal(got.Removed, want.Removed) {
		return fmt.Errorf("removed %v, want %v", got.Removed, want.Removed)
	}
	return nil
}

// TestDeltaSequenceStepIsDiff is Sequence.Step's contract for the
// event-backed sequence: for every generator's tiny sequence under
// RWRMatrix and, on the undirected ones, SymmetricWalkMatrix and
// LaplacianMatrix — replayed from DeltaBatches and, for Wiki, from the
// generator's own events, which may touch an edge twice in a day —
// Step(i) fills exactly what Diff(Matrix(i−1), Matrix(i)) of DeriveEMS
// does, entry for entry with Added and Removed, whether the steps are
// read front to back, shuffled, back to front (every read replays) or
// between whole-matrix reads that move the builder.
func TestDeltaSequenceStepIsDiff(t *testing.T) {
	c, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := gen.WikiSim(c.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	wikiFirst, wikiEvents, err := gen.WikiEvents(c.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := gen.DBLPSim(c.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := gen.Synthetic(c.Synthetic)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := gen.PatentSim(c.Patent)
	if err != nil {
		t.Fatal(err)
	}
	walk, sym, lap := graph.RWRMatrix(0.85), graph.SymmetricWalkMatrix(0.85), graph.LaplacianMatrix(0.5)
	type source struct {
		name    string
		egs     *graph.EGS
		first   *graph.Graph
		batches [][]graph.EdgeEvent
	}
	diffed := func(name string, egs *graph.EGS) source {
		return source{name, egs, egs.Snapshots[0], graph.DeltaBatches(egs)}
	}
	for _, d := range []struct {
		src  source
		ders []graph.Deriver
	}{
		{diffed("wiki", wiki), []graph.Deriver{walk}},
		{source{"wiki/events", wiki, wikiFirst, wikiEvents}, []graph.Deriver{walk}},
		{diffed("dblp", dblp), []graph.Deriver{walk, sym, lap}},
		{diffed("synthetic", syn), []graph.Deriver{walk, sym, lap}},
		{diffed("patent", pat.EGS), []graph.Deriver{walk}},
	} {
		for k, der := range d.ders {
			name := fmt.Sprintf("%s/%d", d.src.name, k)
			ems := graph.DeriveEMS(d.src.egs, der)
			seq, err := graph.NewDeltaSequence(d.src.first, d.src.batches, der)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]sparse.StepDelta, ems.Len())
			for i := 1; i < ems.Len(); i++ {
				want[i].Diff(ems.Matrices[i-1], ems.Matrices[i])
			}
			steps := make([]int, 0, seq.Len()-1)
			for i := 1; i < seq.Len(); i++ {
				steps = append(steps, i)
			}
			rng := xrand.New(9)
			shuffled := func() []int {
				sh := slices.Clone(steps)
				rng.Shuffle(sh)
				return sh
			}
			backward := slices.Clone(steps)
			slices.Reverse(backward)
			var got sparse.StepDelta
			for _, o := range []struct {
				name  string
				steps []int
				whole bool // read a random matrix whole before each step
			}{
				{"forward", steps, false},
				{"shuffled", shuffled(), false},
				{"backward", backward, false},
				{"between matrices", shuffled(), true},
			} {
				for _, i := range o.steps {
					if o.whole {
						j := rng.Intn(seq.Len())
						if err := sameBits(seq.Matrix(j), ems.Matrices[j]); err != nil {
							t.Errorf("%s, %s reads: matrix %d: %v", name, o.name, j, err)
						}
					}
					seq.Step(i, &got)
					if err := sameStep(&got, &want[i]); err != nil {
						t.Errorf("%s, %s reads: step %d: %v", name, o.name, i, err)
					}
				}
			}
			// The EMS's own Step is the Diff it is held to.
			for i := 1; i < ems.Len(); i++ {
				ems.Step(i, &got)
				if err := sameStep(&got, &want[i]); err != nil {
					t.Errorf("%s: EMS step %d: %v", name, i, err)
				}
			}
		}
	}
}

// TestDeltaSequenceRejectsBadEvents: an event outside the first
// snapshot's vertex range is refused when the sequence is made, not met
// by a later Matrix call.
func TestDeltaSequenceRejectsBadEvents(t *testing.T) {
	g := graph.New(3, true, nil)
	batches := [][]graph.EdgeEvent{{{From: 0, To: 1}}, {{From: 0, To: 3}}}
	if _, err := graph.NewDeltaSequence(g, batches, graph.RWRMatrix(0.85)); err == nil {
		t.Fatal("NewDeltaSequence accepted an event to vertex 3 of 3")
	}
}

// TestDeltaSequenceConcurrentReads: goroutines reading one sequence at
// once, each in its own shuffled order, all see DeriveEMS's bits.
func TestDeltaSequenceConcurrentReads(t *testing.T) {
	c, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	egs, err := gen.WikiSim(c.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	der := graph.RWRMatrix(0.85)
	ems := graph.DeriveEMS(egs, der)
	seq, err := graph.NewDeltaSequence(egs.Snapshots[0], graph.DeltaBatches(egs), der)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range xrand.New(uint64(g)).Perm(seq.Len()) {
				if err := sameBits(seq.Matrix(i), ems.Matrices[i]); err != nil {
					t.Errorf("goroutine %d, matrix %d: %v", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
}
