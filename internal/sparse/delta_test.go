package sparse

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// checkStepDelta asserts the batch engine's step path: one Diff of a and
// b in the original indices, then PermuteEntries into the ordering o,
// gives exactly Delta of the two permuted matrices — the same entries in
// the same order with the same bits — and the pattern delta lists, row
// by row, the positions b gained and lost.
func checkStepDelta(t *testing.T, a, b *CSR, o Ordering) {
	t.Helper()
	var d StepDelta
	d.Diff(a, b)
	colInv := o.Col.Inverse()
	got := PermuteEntries(nil, d.Entries, o.Row.Inverse(), colInv)
	want := Delta(a.PermuteInv(o, colInv), b.PermuteInv(o, colInv))
	if len(got) != len(want) {
		t.Fatalf("%d permuted delta entries, permute-then-diff gives %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Row != w.Row || g.Col != w.Col || math.Float64bits(g.Val) != math.Float64bits(w.Val) {
			t.Fatalf("entry %d: (%d,%d)=%v, permute-then-diff has (%d,%d)=%v", k, g.Row, g.Col, g.Val, w.Row, w.Col, w.Val)
		}
	}
	var added, removed []Coord
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			switch inA, inB := a.Has(i, j), b.Has(i, j); {
			case inB && !inA:
				added = append(added, Coord{i, j})
			case inA && !inB:
				removed = append(removed, Coord{i, j})
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want []Coord
	}{{"added", d.Added, added}, {"removed", d.Removed, removed}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d %s positions, want %d", len(c.got), c.name, len(c.want))
		}
		for k := range c.want {
			if c.got[k] != c.want[k] {
				t.Fatalf("%s position %d is %v, want %v", c.name, k, c.got[k], c.want[k])
			}
		}
	}
}

// deltaPair builds two matrices that differ the way consecutive members
// of an evolving sequence do, and in every way a merge must tell apart:
// positions kept with the same value (no ∆A entry), revalued, dropped
// and added, explicit zeros that enter or leave the pattern without
// entering ∆A, and one hub row on each side longer than sortRow's
// insertion-sort cutoff.
func deltaPair(rng *xrand.Rand, n int) (a, b *CSR) {
	ca, cb := NewCOO(n), NewCOO(n)
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return rng.NormFloat64()
	}
	hub := rng.Intn(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != hub && rng.Intn(6) != 0 {
				continue
			}
			switch v := val(); rng.Intn(5) {
			case 0: // kept as it was
				ca.Add(i, j, v)
				cb.Add(i, j, v)
			case 1: // revalued
				ca.Add(i, j, v)
				cb.Add(i, j, val())
			case 2: // dropped
				ca.Add(i, j, v)
			case 3: // added
				cb.Add(i, j, v)
			}
		}
	}
	return ca.ToCSR(), cb.ToCSR()
}

// randomOrdering draws independent row and column permutations: a
// non-symmetric ordering, so a mixed-up inverse shows.
func randomOrdering(rng *xrand.Rand, n int) Ordering {
	return Ordering{Row: rng.Perm(n), Col: rng.Perm(n)}
}

// TestStepDeltaMatchesPermuteThenDiff is the property the batch engine's
// bits rest on: a step's ∆A, diffed once in the original indices and
// moved entry by entry into the cluster ordering, is what permuting both
// matrices and diffing them gives.
func TestStepDeltaMatchesPermuteThenDiff(t *testing.T) {
	rng := xrand.New(28)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		a, b := deltaPair(rng, n)
		checkStepDelta(t, a, b, randomOrdering(rng, n))
		checkStepDelta(t, b, a, IdentityOrdering(n))
	}
	// The long-row branch of sortRow must be reached.
	a, _ := deltaPair(xrand.New(1), 50)
	long := false
	for i := 0; i < a.N(); i++ {
		cols, _ := a.Row(i)
		long = long || len(cols) > 24
	}
	if !long {
		t.Fatal("no row longer than the insertion-sort cutoff")
	}
}

// FuzzStepDelta drives checkStepDelta with hostile pairs. The first
// byte sizes the matrices, the next two seed the ordering and pick a hub
// row that both sides fill; then each four bytes are one position: row,
// column, which side holds it (a, b, both equal, both different) and its
// value, zero included.
func FuzzStepDelta(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 2, 7, 1, 2, 0, 4, 2, 2, 3, 0})
	f.Add([]byte{40, 9, 200, 1, 1, 0, 128, 5, 30, 1, 2, 39, 0, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%64
		rng := xrand.New(uint64(data[1])<<8 | uint64(data[2]))
		ca, cb := NewCOO(n), NewCOO(n)
		if hub := int(data[1]) % n; data[2]&1 == 1 {
			for j := 0; j < n; j++ {
				ca.Add(hub, j, float64(j%3))
				cb.Add(hub, j, float64(j%4))
			}
		}
		for k := 3; k+3 < len(data); k += 4 {
			i, j, v := int(data[k])%n, int(data[k+1])%n, float64(int8(data[k+3])%5)
			switch data[k+2] % 4 {
			case 0:
				ca.Add(i, j, v)
			case 1:
				cb.Add(i, j, v)
			case 2:
				ca.Add(i, j, v)
				cb.Add(i, j, v)
			case 3:
				ca.Add(i, j, v)
				cb.Add(i, j, v+float64(data[k+2]>>2))
			}
		}
		checkStepDelta(t, ca.ToCSR(), cb.ToCSR(), randomOrdering(rng, n))
	})
}
