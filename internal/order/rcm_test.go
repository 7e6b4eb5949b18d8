package order

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

func TestRCMValidPermutation(t *testing.T) {
	rng := xrand.New(700)
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(25)
		p := randomPattern(rng, n, 3*n, true)
		res := RCM(p)
		if !res.Ordering.Valid() {
			t.Fatalf("trial %d: invalid ordering", trial)
		}
		if res.SSPSize < n {
			t.Fatalf("trial %d: ssp %d below n", trial, res.SSPSize)
		}
	}
}

func TestRCMBandedChainIsOptimal(t *testing.T) {
	// A path graph ordered by RCM has bandwidth 1 and zero fill.
	n := 20
	coords := []sparse.Coord{}
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
		if i+1 < n {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1}, sparse.Coord{Row: i + 1, Col: i})
		}
	}
	p := sparse.NewPattern(n, coords)
	res := RCM(p)
	if want := n + 2*(n-1); res.SSPSize != want {
		t.Errorf("path RCM ssp = %d, want %d (zero fill)", res.SSPSize, want)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	// Two components plus an isolated vertex.
	p := sparse.NewPattern(5, []sparse.Coord{
		{Row: 0, Col: 0}, {Row: 1, Col: 1}, {Row: 2, Col: 2}, {Row: 3, Col: 3}, {Row: 4, Col: 4},
		{Row: 0, Col: 1}, {Row: 1, Col: 0},
		{Row: 2, Col: 3}, {Row: 3, Col: 2},
	})
	res := RCM(p)
	if !res.Ordering.Valid() {
		t.Fatal("invalid ordering on disconnected pattern")
	}
}

func TestRCMDeterministic(t *testing.T) {
	rng := xrand.New(701)
	p := randomPattern(rng, 30, 90, true)
	a, b := RCM(p), RCM(p)
	for i := range a.Ordering.Row {
		if a.Ordering.Row[i] != b.Ordering.Row[i] {
			t.Fatal("RCM not deterministic")
		}
	}
}

func TestMarkowitzBeatsRCMOnAverage(t *testing.T) {
	// Fill-reducing should beat bandwidth-reducing in aggregate on
	// random sparse patterns — the ablation claim of docs/ALGORITHMS.md
	// ("Ablations").
	rng := xrand.New(702)
	mk, rcm := 0, 0
	for trial := 0; trial < 12; trial++ {
		n := 25 + rng.Intn(25)
		p := randomPattern(rng, n, 3*n, true)
		mk += Markowitz(p).SSPSize
		rcm += RCM(p).SSPSize
	}
	if mk >= rcm {
		t.Errorf("Markowitz total %d not better than RCM total %d", mk, rcm)
	}
}
