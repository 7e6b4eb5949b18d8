package sparse

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func randomPattern(rng *xrand.Rand, n, k int) *Pattern {
	coords := make([]Coord, 0, k)
	for i := 0; i < k; i++ {
		coords = append(coords, Coord{rng.Intn(n), rng.Intn(n)})
	}
	return NewPattern(n, coords)
}

func TestPatternDedup(t *testing.T) {
	p := NewPattern(3, []Coord{{0, 1}, {0, 1}, {2, 2}})
	if p.Size() != 2 {
		t.Errorf("Size = %d, want 2", p.Size())
	}
	if !p.Has(0, 1) || !p.Has(2, 2) || p.Has(1, 1) {
		t.Error("membership wrong after dedup")
	}
}

func TestPatternUnionIntersect(t *testing.T) {
	a := NewPattern(4, []Coord{{0, 0}, {1, 2}, {3, 3}})
	b := NewPattern(4, []Coord{{1, 2}, {2, 2}})
	u := a.Union(b)
	i := a.Intersect(b)
	if u.Size() != 4 {
		t.Errorf("union size = %d, want 4", u.Size())
	}
	if i.Size() != 1 || !i.Has(1, 2) {
		t.Errorf("intersection wrong: size=%d", i.Size())
	}
	if got := a.IntersectSize(b); got != 1 {
		t.Errorf("IntersectSize = %d, want 1", got)
	}
}

func TestPatternSubset(t *testing.T) {
	a := NewPattern(3, []Coord{{0, 0}})
	b := NewPattern(3, []Coord{{0, 0}, {1, 1}})
	if !a.Subset(b) {
		t.Error("a should be subset of b")
	}
	if b.Subset(a) {
		t.Error("b should not be subset of a")
	}
}

func TestMESKnownValues(t *testing.T) {
	a := NewPattern(4, []Coord{{0, 0}, {1, 1}, {2, 2}})
	if got := MES(a, a); got != 1 {
		t.Errorf("MES(a,a) = %v, want 1", got)
	}
	b := NewPattern(4, []Coord{{3, 3}})
	if got := MES(a, b); got != 0 {
		t.Errorf("MES disjoint = %v, want 0", got)
	}
	c := NewPattern(4, []Coord{{0, 0}})
	// overlap 1, sizes 3 and 1: mes = 2*1/(3+1) = 0.5
	if got := MES(a, c); got != 0.5 {
		t.Errorf("MES = %v, want 0.5", got)
	}
	empty := NewPattern(4, nil)
	if got := MES(empty, empty); got != 1 {
		t.Errorf("MES(empty,empty) = %v, want 1", got)
	}
}

// Property 1 of the paper: sp(A∩) ⊆ sp(Ai) ⊆ sp(A∪) for every member
// of a set of patterns.
func TestSandwichProperty(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(12)
		members := make([]*Pattern, 3+rng.Intn(4))
		for i := range members {
			members[i] = randomPattern(rng, n, 2*n)
		}
		inter, union := members[0], members[0]
		for _, m := range members[1:] {
			inter = inter.Intersect(m)
			union = union.Union(m)
		}
		for i, m := range members {
			if !inter.Subset(m) {
				t.Fatalf("trial %d: A∩ not subset of member %d", trial, i)
			}
			if !m.Subset(union) {
				t.Fatalf("trial %d: member %d not subset of A∪", trial, i)
			}
		}
	}
}

// Property: union and intersection are commutative, and
// |A|+|B| = |A∪B|+|A∩B| (inclusion-exclusion).
func TestPatternInclusionExclusion(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(15)
		a := randomPattern(rng, n, 3*n)
		b := randomPattern(rng, n, 3*n)
		u, i := a.Union(b), a.Intersect(b)
		if !u.Equal(b.Union(a)) || !i.Equal(b.Intersect(a)) {
			return false
		}
		return a.Size()+b.Size() == u.Size()+i.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPatternPermuteConsistentWithCSR(t *testing.T) {
	rng := xrand.New(55)
	n := 14
	m := randomCSR(rng, n, 50)
	o := Ordering{Row: Perm(rng.Perm(n)), Col: Perm(rng.Perm(n))}
	got := m.Pattern().Permute(o)
	want := m.Permute(o).Pattern()
	if !got.Equal(want) {
		t.Error("Pattern.Permute disagrees with CSR.Permute().Pattern()")
	}
}

func TestPatternCoordsRoundTrip(t *testing.T) {
	rng := xrand.New(56)
	p := randomPattern(rng, 10, 30)
	q := NewPattern(10, p.Coords())
	if !p.Equal(q) {
		t.Error("Coords round trip changed pattern")
	}
}

func TestPermValidInverse(t *testing.T) {
	rng := xrand.New(57)
	p := Perm(rng.Perm(20))
	if !p.Valid() {
		t.Fatal("random permutation invalid")
	}
	inv := p.Inverse()
	for i := range p {
		if inv[p[i]] != i {
			t.Fatalf("inverse wrong at %d", i)
		}
	}
	bad := Perm{0, 0, 2}
	if bad.Valid() {
		t.Error("duplicate permutation reported valid")
	}
}

func TestPermApplyScatterInverse(t *testing.T) {
	rng := xrand.New(58)
	n := 17
	p := Perm(rng.Perm(n))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := p.Scatter(p.Apply(x))
	if NormInfDiff(x, y) != 0 {
		t.Error("Scatter(Apply(x)) != x")
	}
}

// TestPatternWithWithout: moving a pattern by a few positions gives the
// pattern NewPattern builds from the moved set, empty edits and edits at
// both ends of the index array included.
func TestPatternWithWithout(t *testing.T) {
	rng := xrand.New(314)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p := randomPattern(rng, n, rng.Intn(3*n))
		var add, drop, kept []Coord
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c := Coord{Row: i, Col: j}
				switch has, pick := p.Has(i, j), rng.Intn(4) == 0; {
				case has && pick:
					drop = append(drop, c)
				case has:
					kept = append(kept, c)
				case pick:
					add = append(add, c)
				}
			}
		}
		if got, want := p.With(add), NewPattern(n, append(p.Coords(), add...)); !got.Equal(want) {
			t.Fatalf("trial %d: With(%v) = %v, want %v", trial, add, got.Coords(), want.Coords())
		}
		if got, want := p.Without(drop), NewPattern(n, kept); !got.Equal(want) {
			t.Fatalf("trial %d: Without(%v) = %v, want %v", trial, drop, got.Coords(), want.Coords())
		}
	}
}
