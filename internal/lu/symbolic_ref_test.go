package lu_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// sameSymbolic fails the test unless got and want hold the same rows,
// column for column.
func sameSymbolic(t *testing.T, name string, got, want *lu.SymbolicLU) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n %d, want %d", name, got.N(), want.N())
	}
	for i := 0; i < want.N(); i++ {
		if !slices.Equal(got.LRow(i), want.LRow(i)) {
			t.Fatalf("%s: L row %d = %v, want %v", name, i, got.LRow(i), want.LRow(i))
		}
		if !slices.Equal(got.URow(i), want.URow(i)) {
			t.Fatalf("%s: U row %d = %v, want %v", name, i, got.URow(i), want.URow(i))
		}
	}
}

// checkSymbolic holds Symbolic of p under o against the heap merge, row
// for row, and SymbolicSize of p under o against its size.
func checkSymbolic(t *testing.T, name string, p *sparse.Pattern, o sparse.Ordering) *lu.SymbolicLU {
	t.Helper()
	permuted := p.Permute(o)
	got, want := lu.Symbolic(permuted), lu.SymbolicReference(permuted)
	sameSymbolic(t, name, got, want)
	if size := lu.SymbolicSize(p, o); size != want.Size() {
		t.Fatalf("%s: SymbolicSize %d, reference size %d", name, size, want.Size())
	}
	return got
}

func randomOrdering(rng *xrand.Rand, n int) sparse.Ordering {
	return sparse.Ordering{Row: sparse.Perm(rng.Perm(n)), Col: sparse.Perm(rng.Perm(n))}
}

// symbolicShape is an n × n pattern of k random positions, optionally
// with its diagonal, mirrored into a symmetric one, and with a full
// trailing block on its last m indices (m = 0: none).
func symbolicShape(rng *xrand.Rand, n, k int, diagonal, symmetric bool, m int) *sparse.Pattern {
	var coords []sparse.Coord
	add := func(i, j int) {
		coords = append(coords, sparse.Coord{Row: i, Col: j})
		if symmetric {
			coords = append(coords, sparse.Coord{Row: j, Col: i})
		}
	}
	for i := 0; diagonal && i < n; i++ {
		add(i, i)
	}
	for ; k > 0 && n > 0; k-- {
		add(rng.Intn(n), rng.Intn(n))
	}
	for i := n - m; i < n; i++ {
		for j := n - m; j < n; j++ {
			add(i, j)
		}
	}
	return sparse.NewPattern(n, coords)
}

// TestSymbolicMatchesReferences holds the pruned closure against two
// references: the heap merge, under the identity, random row and column
// orderings and Markowitz's, and the structure Markowitz's elimination
// hands over, under its own ordering. The shapes are random unsymmetric
// and symmetric patterns with and without a full trailing block, a
// missing diagonal with empty rows, diagonal-only and n ≤ 2.
func TestSymbolicMatchesReferences(t *testing.T) {
	rng := xrand.New(2929)
	type shape struct {
		name string
		p    *sparse.Pattern
	}
	var shapes []shape
	for s := 0; s < 24; s++ {
		n := 3 + rng.Intn(45)
		k := n * (1 + rng.Intn(4))
		m := 1 + rng.Intn(n)
		shapes = append(shapes,
			shape{fmt.Sprint("unsymmetric/", s), symbolicShape(rng, n, k, true, false, 0)},
			shape{fmt.Sprint("symmetric/", s), symbolicShape(rng, n, k, true, true, 0)},
			shape{fmt.Sprint("unsymmetric+tail/", s), symbolicShape(rng, n, k/2, true, false, m)},
			shape{fmt.Sprint("symmetric+tail/", s), symbolicShape(rng, n, k/2, true, true, m)},
			// No diagonal and about a third of the positions: empty rows.
			shape{fmt.Sprint("empty-rows/", s), symbolicShape(rng, n, n/3, false, false, 0)},
		)
	}
	shapes = append(shapes, shape{"diagonal-only", symbolicShape(rng, 9, 0, true, false, 0)})
	for n := 0; n <= 2; n++ {
		shapes = append(shapes,
			shape{fmt.Sprint("n=", n), symbolicShape(rng, n, 0, true, false, 0)},
			shape{fmt.Sprint("n=", n, "/full"), symbolicShape(rng, n, 0, false, false, n)},
		)
	}
	for _, sh := range shapes {
		p, n := sh.p, sh.p.N()
		checkSymbolic(t, sh.name+"/identity", p, sparse.IdentityOrdering(n))
		for r := 0; r < 3; r++ {
			checkSymbolic(t, fmt.Sprint(sh.name, "/random/", r), p, randomOrdering(rng, n))
		}
		res := order.Markowitz(p)
		got := checkSymbolic(t, sh.name+"/markowitz", p, res.Ordering)
		sameSymbolic(t, sh.name+"/markowitz elimination", got, res.Symbolic)
		if got.Size() != res.SSPSize {
			t.Fatalf("%s: size %d, Markowitz SSPSize %d", sh.name, got.Size(), res.SSPSize)
		}
	}
}

// FuzzSymbolic draws a pattern from the bytes (n, a symmetric flag and
// a trailing block flag from the first, then one position per byte
// pair) and an ordering from the seed (0: the identity; odd: one
// permutation for rows and columns; even: one each), and holds the
// pruned closure and SymbolicSize against the heap merge. A symmetric
// pattern under the identity or an odd seed is the one SymbolicSize
// counts through its elimination tree.
func FuzzSymbolic(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 4, 0}, uint64(0))
	f.Add([]byte{0x87, 3, 5, 9, 2, 11, 0, 4, 4, 1, 7}, uint64(3))
	f.Add([]byte{0x4c, 1, 0, 2, 1, 3, 2, 0, 3, 5, 5}, uint64(11))
	f.Add([]byte{0xd1, 2, 7, 9, 4, 13, 1, 6, 6, 0, 15}, uint64(8))
	f.Add([]byte{0x92, 1, 0, 5, 17, 8, 3, 12, 12, 2, 9}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]&0x3f)%40
		m := 0
		if data[0]&0x40 != 0 {
			m = 1 + int(seed>>32)%n
		}
		var coords []sparse.Coord
		for k := 1; k+1 < len(data); k += 2 {
			i, j := int(data[k])%n, int(data[k+1])%n
			coords = append(coords, sparse.Coord{Row: i, Col: j})
			if data[0]&0x80 != 0 {
				coords = append(coords, sparse.Coord{Row: j, Col: i})
			}
		}
		for i := n - m; i < n; i++ {
			for j := n - m; j < n; j++ {
				coords = append(coords, sparse.Coord{Row: i, Col: j})
			}
		}
		o := sparse.IdentityOrdering(n)
		switch {
		case seed%2 == 1:
			o = sparse.SymmetricOrdering(xrand.New(seed).Perm(n))
		case seed != 0:
			o = randomOrdering(xrand.New(seed), n)
		}
		checkSymbolic(t, "fuzz", sparse.NewPattern(n, coords), o)
	})
}
