package lu

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// bruteSymbolic computes s̃p(A) by explicit Gaussian-elimination
// closure: for k in increasing order, every (i > k, j > k) with
// (i, k) and (k, j) present becomes present. This is equivalent to the
// path characterization of Equation 2 and serves as the ground truth.
func bruteSymbolic(p *sparse.Pattern) [][]bool {
	n := p.N()
	m := make([][]bool, n)
	for i := range m {
		m[i] = make([]bool, n)
		m[i][i] = true // diagonal always in s̃p
		for _, j := range p.Row(i) {
			m[i][j] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !m[i][k] {
				continue
			}
			for j := k + 1; j < n; j++ {
				if m[k][j] {
					m[i][j] = true
				}
			}
		}
	}
	return m
}

// symbolicReference is the heap row merge Symbolic used to be: row i
// merges every earlier U row it reaches in full, in increasing column
// order. The pruned closure must return the same rows, and SymbolicSize
// the same size (TestSymbolicMatchesReferences, FuzzSymbolic).
func symbolicReference(p *sparse.Pattern) *SymbolicLU {
	n := p.N()
	s := &SymbolicLU{
		n:     n,
		lrows: make([][]int, n),
		urows: make([][]int, n),
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var h sparse.MinHeap[column]
	for i := 0; i < n; i++ {
		h = h[:0]
		for _, j := range p.Row(i) {
			if mark[j] != i {
				mark[j] = i
				h = append(h, column(j))
			}
		}
		h.Init()
		for len(h) > 0 {
			j := int(h.Pop())
			switch {
			case j < i:
				s.lrows[i] = append(s.lrows[i], j)
				for _, k := range s.urows[j] {
					if mark[k] != i {
						mark[k] = i
						h.Push(column(k))
					}
				}
			case j > i:
				s.urows[i] = append(s.urows[i], j)
			}
			// j == i (the diagonal) is implicit.
		}
	}
	return s
}

// column is a column index in symbolicReference's queue.
type column int

func (a column) Less(b column) bool { return a < b }

func randomPattern(rng *xrand.Rand, n, extra int) *sparse.Pattern {
	coords := make([]sparse.Coord, 0, n+extra)
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
	}
	for k := 0; k < extra; k++ {
		coords = append(coords, sparse.Coord{Row: rng.Intn(n), Col: rng.Intn(n)})
	}
	return sparse.NewPattern(n, coords)
}

func TestSymbolicMatchesBruteForce(t *testing.T) {
	rng := xrand.New(101)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(18)
		p := randomPattern(rng, n, rng.Intn(4*n))
		sym := Symbolic(p)
		want := bruteSymbolic(p)
		got := sym.Pattern()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.Has(i, j) != want[i][j] {
					t.Fatalf("trial %d: s̃p(%d,%d) = %v, want %v", trial, i, j, got.Has(i, j), want[i][j])
				}
			}
		}
		// Size must agree too.
		wantSize := 0
		for i := range want {
			for j := range want[i] {
				if want[i][j] {
					wantSize++
				}
			}
		}
		if sym.Size() != wantSize {
			t.Fatalf("trial %d: Size = %d, want %d", trial, sym.Size(), wantSize)
		}
	}
}

func TestSymbolicKnownFillExample(t *testing.T) {
	// Arrow matrix pointing the wrong way: first row/col dense causes
	// complete fill below.
	n := 5
	coords := []sparse.Coord{}
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i})
		if i > 0 {
			coords = append(coords, sparse.Coord{Row: i, Col: 0}, sparse.Coord{Row: 0, Col: i})
		}
	}
	p := sparse.NewPattern(n, coords)
	sym := Symbolic(p)
	if sym.Size() != n*n {
		t.Errorf("arrow matrix should fill completely: size %d, want %d", sym.Size(), n*n)
	}
	// Reversed arrow (dense last row/col) has no fill at all.
	coords2 := []sparse.Coord{}
	for i := 0; i < n; i++ {
		coords2 = append(coords2, sparse.Coord{Row: i, Col: i})
		if i < n-1 {
			coords2 = append(coords2, sparse.Coord{Row: n - 1, Col: i}, sparse.Coord{Row: i, Col: n - 1})
		}
	}
	p2 := sparse.NewPattern(n, coords2)
	sym2 := Symbolic(p2)
	if sym2.FillCount(p2) != 0 {
		t.Errorf("reversed arrow should have zero fill, got %d", sym2.FillCount(p2))
	}
}

func TestSymbolicDiagonalOnly(t *testing.T) {
	p := randomPattern(xrand.New(1), 6, 0)
	sym := Symbolic(p)
	if sym.Size() != 6 {
		t.Errorf("diagonal matrix symbolic size = %d, want 6", sym.Size())
	}
	if sym.FillCount(p) != 0 {
		t.Error("diagonal matrix should have no fill")
	}
}

// Lemma 1 of the paper: sp(Aa) ⊆ sp(Ab) implies s̃p(Aa) ⊆ s̃p(Ab).
func TestMonotonicityLemma(t *testing.T) {
	rng := xrand.New(202)
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(15)
		a := randomPattern(rng, n, 2*n)
		// b = a plus extra coords.
		extra := randomPattern(rng, n, n)
		b := a.Union(extra)
		sa := Symbolic(a).Pattern()
		sb := Symbolic(b).Pattern()
		if !sa.Subset(sb) {
			t.Fatalf("trial %d: monotonicity violated", trial)
		}
	}
}

// Theorem 1: s̃p(A∪) is a USSP — it covers s̃p(Ai) for every member.
func TestUSSPTheorem(t *testing.T) {
	rng := xrand.New(303)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		members := make([]*sparse.Pattern, 4)
		for i := range members {
			members[i] = randomPattern(rng, n, 3*n)
		}
		union := members[0]
		for _, m := range members[1:] {
			union = union.Union(m)
		}
		ussp := Symbolic(union).Pattern()
		for i, m := range members {
			if !Symbolic(m).Pattern().Subset(ussp) {
				t.Fatalf("trial %d: member %d not covered by USSP", trial, i)
			}
		}
	}
}

func TestSymbolicSizeUnderOrdering(t *testing.T) {
	rng := xrand.New(404)
	n := 12
	p := randomPattern(rng, n, 3*n)
	id := sparse.IdentityOrdering(n)
	if got, want := SymbolicSize(p, id), Symbolic(p).Size(); got != want {
		t.Errorf("SymbolicSize identity = %d, want %d", got, want)
	}
	// Any ordering: size must be at least n (diagonal) and at most n².
	o := sparse.Ordering{Row: sparse.Perm(rng.Perm(n)), Col: sparse.Perm(rng.Perm(n))}
	s := SymbolicSize(p, o)
	if s < n || s > n*n {
		t.Errorf("SymbolicSize out of range: %d", s)
	}
}

func TestFillCount(t *testing.T) {
	// Chain 0<-1<-2 pattern with (2,0),(0,2) forces fill at... compute
	// a tiny concrete case: positions (1,0),(0,1),(2,1),(1,2) + diag.
	p := sparse.NewPattern(3, []sparse.Coord{
		{Row: 0, Col: 0}, {Row: 1, Col: 1}, {Row: 2, Col: 2},
		{Row: 1, Col: 0}, {Row: 0, Col: 1}, {Row: 2, Col: 1}, {Row: 1, Col: 2},
	})
	sym := Symbolic(p)
	// Eliminating 0 adds nothing (only (1,0),(0,1)); eliminating 1 adds
	// (2,2) present, and (2,0)? (2,1) and (1,0) → wait elimination at 1
	// uses (i,1),(1,j) for i,j > 1: (2,1) and (1,2) → fill (2,2) which
	// is already present. So fill count 0... but path rule for (2,0):
	// needs intermediate < min(2,0)=0: impossible. Check via brute.
	want := bruteSymbolic(p)
	cnt := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if want[i][j] && !p.Has(i, j) && i != j {
				cnt++
			}
		}
	}
	if got := sym.FillCount(p); got != cnt {
		t.Errorf("FillCount = %d, want %d", got, cnt)
	}
}
