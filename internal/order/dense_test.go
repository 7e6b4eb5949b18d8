package order

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// checkAgainstReference holds one elimination under policy ready against
// the no-shortcut reference (pivots, SSPSize) and lu.Symbolic of the
// permuted pattern (the structure, row for row).
func checkAgainstReference(t *testing.T, name string, p *sparse.Pattern, symmetric bool, ready func(m, entries int) bool) phases {
	t.Helper()
	res, ph := eliminateWith(p, symmetric, ready)
	wantPivots, wantSize := referenceEliminate(p, symmetric, nil)
	if !slices.Equal([]int(res.Ordering.Row), wantPivots) || !slices.Equal([]int(res.Ordering.Col), wantPivots) {
		t.Fatalf("%s: pivots %v, reference %v (switched at %d)", name, res.Ordering.Row, wantPivots, ph.denseAt)
	}
	ordered := p
	if symmetric {
		ordered = symmetrized(p)
	}
	want := lu.Symbolic(ordered.Permute(res.Ordering))
	if res.SSPSize != wantSize || res.SSPSize != want.Size() || res.Symbolic.N() != p.N() {
		t.Fatalf("%s: SSPSize %d, reference %d, symbolic %d (switched at %d)", name, res.SSPSize, wantSize, want.Size(), ph.denseAt)
	}
	for i := 0; i < p.N(); i++ {
		if !slices.Equal(res.Symbolic.LRow(i), want.LRow(i)) || !slices.Equal(res.Symbolic.URow(i), want.URow(i)) {
			t.Fatalf("%s: row %d = %v | %v, symbolic %v | %v (switched at %d)", name, i,
				res.Symbolic.LRow(i), res.Symbolic.URow(i), want.LRow(i), want.URow(i), ph.denseAt)
		}
	}
	return ph
}

// TestDensePhaseMatchesLists switches every structure pattern to bitsets
// at every live count it passes through (and never): whatever the step,
// Markowitz and MinDegree give the reference's pivots and size and
// lu.Symbolic's structure. The patterns reach past one and two machine
// words, so the multi-word sets are covered.
func TestDensePhaseMatchesLists(t *testing.T) {
	ps := structurePatterns()
	for s := 0; s < 4; s++ {
		rng := xrand.New(uint64(1300 + s))
		n := 70 + rng.Intn(120)
		ps[fmt.Sprint("wide-unsymmetric/", s)] = randomPattern(rng, n, n*(1+rng.Intn(3)), false)
		ps[fmt.Sprint("wide-symmetric/", s)] = randomPattern(rng, n, n*(1+rng.Intn(2)), true)
	}
	for name, p := range ps {
		for _, symmetric := range []bool{false, true} {
			step := 1
			if p.N() > 66 {
				step = 7 // the wide ones: every seventh live count, both word boundaries included
			}
			for m := p.N(); m >= 0; m -= step {
				ph := checkAgainstReference(t, fmt.Sprintf("%s symmetric=%v m=%d", name, symmetric, m), p, symmetric, switchAt(m))
				if ph.denseAt > m {
					t.Fatalf("%s: asked to switch at %d, switched at %d", name, m, ph.denseAt)
				}
			}
			if ph := checkAgainstReference(t, name+" never", p, symmetric, neverDense); ph.denseAt != -1 || ph.densePivots != 0 {
				t.Fatalf("%s: the never policy switched: %+v", name, ph)
			}
			checkAgainstReference(t, name+" default", p, symmetric, denseReady)
		}
	}
}

// TestDenseSwitchAroundFullStop lands the switch before, at and after
// the step where the active submatrix turns full. A k-clique with
// pendants is full once the k pendants are gone: a switch before that
// eliminates the remaining pendants on bitsets and then stops as the
// lists would; one at it finds nothing to eliminate; one after it is
// never asked for, because the list phase has already stopped.
func TestDenseSwitchAroundFullStop(t *testing.T) {
	k := 9
	p := cliqueWithPendants(k)
	for _, tc := range []struct{ m, denseAt, densePivots int }{
		{2 * k, 2 * k, k},
		{k + 3, k + 3, 3},
		{k, k, 0},
		{k - 2, -1, 0},
	} {
		for _, symmetric := range []bool{false, true} {
			ph := checkAgainstReference(t, fmt.Sprint("clique+pendants m=", tc.m), p, symmetric, switchAt(tc.m))
			if ph.denseAt != tc.denseAt || ph.densePivots != tc.densePivots {
				t.Fatalf("m=%d symmetric=%v: %+v, want switch at %d and %d dense pivots", tc.m, symmetric, ph, tc.denseAt, tc.densePivots)
			}
		}
	}
}

// TestLiveEntryCount checks the number the density rule divides: before
// every pivot the list phase reports the live off-diagonal entry count
// the reference finds by summing its lists.
func TestLiveEntryCount(t *testing.T) {
	for name, p := range structurePatterns() {
		for _, symmetric := range []bool{false, true} {
			want := map[int]int{}
			referenceEliminate(p, symmetric, func(m, entries int) { want[m] = entries })
			eliminateWith(p, symmetric, func(m, entries int) bool {
				if entries != want[m] {
					t.Fatalf("%s symmetric=%v: %d entries at %d live vertices, reference %d", name, symmetric, entries, m, want[m])
				}
				return false
			})
		}
	}
}

// TestDensePhaseMemoryBound holds the cap where the code decides it: the
// policy never allocates more than denseMaxBytes, and a pattern that is
// dense enough with more live vertices than fit stays on lists until it
// is under the cap — and still gives the list phase's answer. The
// pattern is a clique on a quarter of the vertices (entries ≥ m²/16 from
// the start) with a pendant on each of the others, which go first.
func TestDensePhaseMemoryBound(t *testing.T) {
	limit := 0 // the largest live count the policy accepts
	for m := 1; m < 1<<14; m++ {
		if denseReady(m, m*m) {
			limit = m
			if denseBytes(m) > denseMaxBytes {
				t.Fatalf("policy accepts %d live vertices = %d bytes of bitsets, cap %d", m, denseBytes(m), denseMaxBytes)
			}
		}
	}
	if limit != 4096 || denseBytes(limit) != 4<<20 {
		t.Fatalf("cap at %d live vertices (%d bytes), want 4096 (4 MB)", limit, denseBytes(limit))
	}

	n := limit + 204
	k := n/4 + 1
	coords := make([]sparse.Coord, 0, k*k+3*n)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			coords = append(coords, sparse.Coord{Row: i, Col: j})
		}
	}
	for v := k; v < n; v++ {
		coords = append(coords, sparse.Coord{Row: v, Col: v}, sparse.Coord{Row: v, Col: v % k}, sparse.Coord{Row: v % k, Col: v})
	}
	p := sparse.NewPattern(n, coords)
	if !denseReady(limit, k*(k-1)) || denseReady(n, k*k+2*n) {
		t.Fatalf("pattern does not straddle the cap: n %d, clique %d", n, k)
	}
	got, ph := eliminateWith(p, false, denseReady)
	if ph.denseAt != limit || ph.densePivots != limit-k {
		t.Fatalf("switched at %d live vertices for %d pivots, want %d (the cap) and %d (the pendants left)", ph.denseAt, ph.densePivots, limit, limit-k)
	}
	want, _ := eliminateWith(p, false, neverDense)
	if !slices.Equal([]int(got.Ordering.Row), []int(want.Ordering.Row)) || got.SSPSize != want.SSPSize || got.SSPSize != 3*(n-k)+k*k {
		t.Fatalf("SSPSize %d, lists %d, closed form %d", got.SSPSize, want.SSPSize, 3*(n-k)+k*k)
	}
	for i := 0; i < n; i++ {
		if !slices.Equal(got.Symbolic.LRow(i), want.Symbolic.LRow(i)) || !slices.Equal(got.Symbolic.URow(i), want.Symbolic.URow(i)) {
			t.Fatalf("row %d differs from the list phase's", i)
		}
	}
}

// TestGoldenPatternsEnterDensePhase makes sure the golden table pins the
// bitset code and not just the lists: under the shipped policy at least
// three quarters of the 2 × 34 golden eliminations hand pivots to the
// dense phase, the two generator unions among them.
func TestGoldenPatternsEnterDensePhase(t *testing.T) {
	ps := goldenPatterns(t)
	dense := 0
	for i, p := range ps {
		for _, symmetric := range []bool{false, true} {
			_, ph := eliminateWith(p, symmetric, denseReady)
			if ph.densePivots > 0 {
				dense++
			} else if i >= 32 {
				t.Errorf("golden union %d (symmetric=%v) never eliminates on bitsets: %+v", i, symmetric, ph)
			}
		}
	}
	if dense*4 < 2*len(ps)*3 {
		t.Fatalf("%d of %d golden eliminations enter the dense phase, want at least three quarters", dense, 2*len(ps))
	}
	t.Logf("%d of %d golden eliminations eliminate pivots on bitsets", dense, 2*len(ps))
}

// FuzzEliminateDense draws a pattern (size, density, symmetry, diagonal
// or not) and a switch point and holds the elimination against the
// no-shortcut reference and lu.Symbolic: wherever the representation
// changes, the pivots, the size and the structure do not.
func FuzzEliminateDense(f *testing.F) {
	f.Add(uint64(1), 12, 3, 6, false, true)
	f.Add(uint64(2), 70, 2, 70, true, true)
	f.Add(uint64(3), 130, 1, 65, false, false)
	f.Add(uint64(4), 1, 0, 0, true, false)
	f.Add(uint64(5), 40, 9, -1, false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density, mRaw int, symmetric, diagonal bool) {
		n := abs(nRaw) % 140
		rng := xrand.New(seed)
		var coords []sparse.Coord
		for k := n * (abs(density) % 10); k > 0; k-- {
			if i, j := rng.Intn(n), rng.Intn(n); diagonal || i != j {
				coords = append(coords, sparse.Coord{Row: i, Col: j})
			}
		}
		for i := 0; diagonal && i < n; i++ {
			coords = append(coords, sparse.Coord{Row: i, Col: i})
		}
		p := sparse.NewPattern(n, coords)
		ready := neverDense
		if mRaw >= 0 {
			ready = switchAt(mRaw % (n + 1))
		}
		checkAgainstReference(t, fmt.Sprintf("seed=%d n=%d m=%d", seed, n, mRaw), p, symmetric, ready)
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
