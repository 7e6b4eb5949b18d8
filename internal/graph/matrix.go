package graph

import (
	"fmt"

	"repro/internal/sparse"
)

// Deriver converts a snapshot graph into the matrix A of the linear
// system A·x = b for some graph measure. The paper's EMS is obtained by
// mapping a Deriver over an EGS.
type Deriver func(*Graph) *sparse.CSR

// RWRMatrix returns a Deriver producing A = I − d·W, where W is the
// column-normalized adjacency matrix of the snapshot: if (i, j) is an
// edge then W(j, i) = 1/λ(i) with λ(i) the out-degree of i (footnote 1
// of the paper). Columns of dangling vertices (out-degree 0) are zero
// apart from the unit diagonal, which corresponds to the random walk
// halting at sinks. With 0 < d < 1 the matrix is strictly diagonally
// dominant by columns, hence non-singular and safely factorizable
// without pivoting.
func RWRMatrix(d float64) Deriver {
	if d <= 0 || d >= 1 {
		panic(fmt.Sprintf("graph: damping factor %v outside (0,1)", d))
	}
	return func(g *Graph) *sparse.CSR {
		c := sparse.NewCOO(g.N())
		c.Reserve(g.N() + g.NumEdges())
		// Column by column, diagonal first: every row then receives its
		// entries in ascending column order and ToCSR has nothing to sort.
		for i := 0; i < g.N(); i++ {
			c.Add(i, i, 1)
			out := g.OutNeighbors(i)
			if len(out) == 0 {
				continue
			}
			w := d / float64(len(out))
			for _, j := range out {
				// W(j, i) = 1/λ(i), so A(j, i) = −d/λ(i).
				c.Add(j, i, -w)
			}
		}
		return c.ToCSR()
	}
}

// SymmetricWalkMatrix returns a Deriver producing the symmetric matrix
// A = I − d·Ŵ with Ŵ(i, j) = Ŵ(j, i) = 1/max(λ(i), λ(j)) for each
// undirected edge {i, j}. Row sums of Ŵ are at most 1, so A is strictly
// diagonally dominant and symmetric — the setting required by the
// LUDEM-QC problem (Definition 5). This is the standard "maximum
// degree" symmetric normalization of a random walk kernel.
func SymmetricWalkMatrix(d float64) Deriver {
	if d <= 0 || d >= 1 {
		panic(fmt.Sprintf("graph: damping factor %v outside (0,1)", d))
	}
	return func(g *Graph) *sparse.CSR {
		if g.Directed() {
			panic("graph: SymmetricWalkMatrix requires an undirected graph")
		}
		c := sparse.NewCOO(g.N())
		c.Reserve(g.N() + 2*g.NumEdges())
		// Vertex by vertex, diagonal first: row i has its lower entries
		// from the earlier vertices, then the diagonal, then its upper
		// entries — ascending, so ToCSR has nothing to sort.
		for i := 0; i < g.N(); i++ {
			c.Add(i, i, 1)
			di := g.OutDegree(i)
			for _, j := range g.OutNeighbors(i) {
				if j < i {
					continue // each undirected edge once
				}
				dj := g.OutDegree(j)
				m := di
				if dj > m {
					m = dj
				}
				w := -d / float64(m)
				c.Add(i, j, w)
				c.Add(j, i, w)
			}
		}
		return c.ToCSR()
	}
}

// LaplacianMatrix returns a Deriver producing the shifted graph
// Laplacian A = L + εI = D − W + εI of an undirected snapshot, a
// symmetric positive definite matrix commonly used in spectral and
// diffusion computations. ε > 0 keeps A non-singular.
func LaplacianMatrix(eps float64) Deriver {
	if eps <= 0 {
		panic("graph: LaplacianMatrix requires eps > 0")
	}
	return func(g *Graph) *sparse.CSR {
		if g.Directed() {
			panic("graph: LaplacianMatrix requires an undirected graph")
		}
		c := sparse.NewCOO(g.N())
		c.Reserve(g.N() + 2*g.NumEdges())
		for i := 0; i < g.N(); i++ {
			c.Add(i, i, float64(g.OutDegree(i))+eps)
			for _, j := range g.OutNeighbors(i) {
				c.Add(i, j, -1)
			}
		}
		return c.ToCSR()
	}
}

// EMS is an evolving matrix sequence: the image of an EGS under a
// Deriver, M = {A1, …, AT}.
type EMS struct {
	Matrices []*sparse.CSR
}

// DeriveEMS maps d over the EGS snapshots.
func DeriveEMS(s *EGS, d Deriver) *EMS {
	ms := make([]*sparse.CSR, s.Len())
	for i, g := range s.Snapshots {
		ms[i] = d(g)
	}
	return &EMS{Matrices: ms}
}

// Len returns the number of matrices T.
func (m *EMS) Len() int { return len(m.Matrices) }

// N returns the shared dimension.
func (m *EMS) N() int { return m.Matrices[0].N() }
