package graph

import (
	"math"
	"testing"
)

func path3() *Graph {
	return New(3, true, []Edge{{0, 1}, {1, 2}})
}

func TestNewDirectedBasics(t *testing.T) {
	g := path3()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed edge membership wrong")
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(0) != 0 {
		t.Error("degree bookkeeping wrong")
	}
}

func TestNewUndirectedMirrors(t *testing.T) {
	g := New(3, false, []Edge{{2, 0}})
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Error("undirected edge not mirrored")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestNewDropsSelfLoopsAndDuplicates(t *testing.T) {
	g := New(3, true, []Edge{{0, 0}, {0, 1}, {0, 1}})
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {3, 0}}
	g := New(4, true, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges returned %d, want %d", len(out), len(in))
	}
	g2 := New(4, true, out)
	for _, e := range in {
		if !g2.HasEdge(e.From, e.To) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestUndirectedEdgesCanonical(t *testing.T) {
	g := New(3, false, []Edge{{2, 1}, {1, 0}})
	for _, e := range g.Edges() {
		if e.From >= e.To {
			t.Errorf("edge %v not canonical", e)
		}
	}
	if len(g.Edges()) != 2 {
		t.Errorf("got %d edges, want 2", len(g.Edges()))
	}
}

func TestRWRMatrixColumnsSumToD(t *testing.T) {
	g := New(4, true, []Edge{{0, 1}, {0, 2}, {1, 2}, {3, 0}})
	a := Derive(RWRMatrix(0.85), g)
	// Column i of A is e_i − d·W(:,i); off-diagonal column sums must be
	// −d for non-dangling i.
	d := a.Dense()
	for i := 0; i < 4; i++ {
		if d[i][i] != 1 {
			t.Errorf("diagonal A(%d,%d) = %v, want 1", i, i, d[i][i])
		}
		colSum := 0.0
		for j := 0; j < 4; j++ {
			if j != i {
				colSum += d[j][i]
			}
		}
		want := -0.85
		if g.OutDegree(i) == 0 {
			want = 0
		}
		if math.Abs(colSum-want) > 1e-12 {
			t.Errorf("off-diagonal column %d sum = %v, want %v", i, colSum, want)
		}
	}
}

func TestRWRMatrixEntryValue(t *testing.T) {
	g := New(3, true, []Edge{{0, 1}, {0, 2}})
	a := Derive(RWRMatrix(0.8), g)
	// W(1,0) = 1/2 so A(1,0) = −0.4.
	if got := a.At(1, 0); math.Abs(got+0.4) > 1e-15 {
		t.Errorf("A(1,0) = %v, want -0.4", got)
	}
	if got := a.At(2, 1); got != 0 {
		t.Errorf("A(2,1) = %v, want 0", got)
	}
}

func TestSymmetricWalkMatrixSymmetricAndDominant(t *testing.T) {
	g := New(5, false, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {1, 4}})
	a := Derive(SymmetricWalkMatrix(0.9), g)
	if !a.IsSymmetric(1e-15) {
		t.Fatal("matrix not symmetric")
	}
	d := a.Dense()
	for i := range d {
		off := 0.0
		for j, v := range d[i] {
			if j != i {
				off += math.Abs(v)
			}
		}
		if off >= d[i][i] {
			t.Errorf("row %d not strictly diagonally dominant: off=%v diag=%v", i, off, d[i][i])
		}
	}
}

func TestLaplacianMatrix(t *testing.T) {
	g := New(3, false, []Edge{{0, 1}, {1, 2}})
	a := Derive(LaplacianMatrix(0.5), g)
	if got := a.At(1, 1); got != 2.5 {
		t.Errorf("A(1,1) = %v, want 2.5", got)
	}
	if got := a.At(0, 1); got != -1 {
		t.Errorf("A(0,1) = %v, want -1", got)
	}
	if !a.IsSymmetric(0) {
		t.Error("Laplacian not symmetric")
	}
}

func TestNewEGSValidation(t *testing.T) {
	g3 := path3()
	g4 := New(4, true, nil)
	if _, err := NewEGS([]*Graph{g3, g4}); err == nil {
		t.Error("mismatched vertex counts accepted")
	}
	if _, err := NewEGS(nil); err == nil {
		t.Error("empty EGS accepted")
	}
	u := New(3, false, nil)
	if _, err := NewEGS([]*Graph{g3, u}); err == nil {
		t.Error("mixed directedness accepted")
	}
	if s, err := NewEGS([]*Graph{g3, g3}); err != nil || s.Len() != 2 || s.N() != 3 {
		t.Error("valid EGS rejected")
	}
}

func TestAvgSuccessiveMES(t *testing.T) {
	a := New(3, true, []Edge{{0, 1}, {1, 2}})
	b := New(3, true, []Edge{{0, 1}})
	s, err := NewEGS([]*Graph{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// patterns {01,12} and {01}: mes = 2*1/(2+1) = 2/3
	if got := s.AvgSuccessiveMES(); math.Abs(got-2.0/3) > 1e-15 {
		t.Errorf("AvgSuccessiveMES = %v, want 2/3", got)
	}
	ident, _ := NewEGS([]*Graph{a, a, a})
	if got := ident.AvgSuccessiveMES(); got != 1 {
		t.Errorf("identical snapshots mes = %v, want 1", got)
	}
}

func TestDeriveEMS(t *testing.T) {
	s, _ := NewEGS([]*Graph{path3(), path3()})
	ems := DeriveEMS(s, RWRMatrix(0.85))
	if ems.Len() != 2 || ems.N() != 3 {
		t.Fatalf("EMS shape wrong: len=%d n=%d", ems.Len(), ems.N())
	}
	if !ems.Matrices[0].EqualApprox(ems.Matrices[1], 0) {
		t.Error("identical snapshots gave different matrices")
	}
}
