// Package graph provides the evolving-graph substrate of the CLUDE
// reproduction: snapshot graphs, evolving graph sequences (EGS, after
// Ren et al., VLDB 2011), and the derivations that turn a snapshot into
// the sparse matrix A of a linear system A·x = b for graph measures
// such as PageRank, Personalized PageRank and Random Walk with Restart.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sparse"
)

// Edge is a directed edge from From to To. Undirected graphs store each
// edge once in canonical (min, max) orientation.
type Edge struct {
	From, To int
}

// Graph is an immutable snapshot graph on n vertices. Self-loops are
// not stored (the generators never produce them; AddEdge-style
// construction drops them).
type Graph struct {
	n        int
	directed bool
	adj      [][]int // out-neighbours, sorted
	inDeg    []int
	edges    int
}

// New builds a snapshot from an edge list. Duplicate edges and
// self-loops are dropped. For undirected graphs every edge is
// normalized to canonical orientation and mirrored in the adjacency
// structure.
func New(n int, directed bool, edges []Edge) *Graph {
	g := &Graph{n: n, directed: directed, adj: make([][]int, n), inDeg: make([]int, n)}
	// Count first, so every adjacency list is carved out of one array
	// instead of grown by append.
	start := make([]int, n+1)
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n))
		}
		start[e.From+1]++
		if !directed {
			start[e.To+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	flat := make([]int, start[n])
	next := append([]int(nil), start[:n]...)
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		flat[next[e.From]] = e.To
		next[e.From]++
		if !directed {
			flat[next[e.To]] = e.From
			next[e.To]++
		}
	}
	for u := 0; u < n; u++ {
		list := flat[start[u]:start[u+1]]
		sort.Ints(list)
		list = slices.Compact(list)
		for _, v := range list {
			g.inDeg[v]++
		}
		if len(list) > 0 {
			g.adj[u] = slices.Clip(list)
		}
		g.edges += len(list)
	}
	if !directed {
		g.edges /= 2
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumEdges returns the number of (undirected: unordered) edges.
func (g *Graph) NumEdges() int { return g.edges }

// OutDegree returns the out-degree of u (the degree, if undirected).
func (g *Graph) OutDegree(u int) int { return len(g.adj[u]) }

// InDegree returns the in-degree of u (the degree, if undirected).
func (g *Graph) InDegree(u int) int { return g.inDeg[u] }

// OutNeighbors returns the sorted out-neighbour list of u. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(u int) []int { return g.adj[u] }

// HasEdge reports whether the directed edge (u, v) exists (for
// undirected graphs, whether {u, v} exists).
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	k := sort.SearchInts(a, v)
	return k < len(a) && a[k] == v
}

// Reverse returns the graph with every directed edge flipped. For a
// citation graph this turns "cites" into "is cited by", which is the
// orientation needed to measure who depends on a seed set via random
// walks (paper §7). Undirected graphs are returned unchanged.
func (g *Graph) Reverse() *Graph {
	if !g.directed {
		return g
	}
	es := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			es = append(es, Edge{From: v, To: u})
		}
	}
	return New(g.n, true, es)
}

// Edges returns all edges. Directed graphs return each arc once;
// undirected graphs return each edge once in canonical orientation.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if g.directed || u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// EGS is an evolving graph sequence: an ordered list of snapshot graphs
// over the same vertex set.
type EGS struct {
	Snapshots []*Graph
}

// NewEGS validates that all snapshots share vertex count and
// directedness and wraps them.
func NewEGS(snaps []*Graph) (*EGS, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("graph: empty EGS")
	}
	n, dir := snaps[0].N(), snaps[0].Directed()
	for i, g := range snaps {
		if g.N() != n {
			return nil, fmt.Errorf("graph: snapshot %d has %d vertices, want %d", i, g.N(), n)
		}
		if g.Directed() != dir {
			return nil, fmt.Errorf("graph: snapshot %d directedness differs", i)
		}
	}
	return &EGS{Snapshots: snaps}, nil
}

// Len returns the number of snapshots T.
func (s *EGS) Len() int { return len(s.Snapshots) }

// N returns the shared vertex count.
func (s *EGS) N() int { return s.Snapshots[0].N() }

// AvgSuccessiveMES returns the average matrix-edit-similarity between
// the adjacency patterns of successive snapshots — the statistic the
// paper reports as 99.88% (Wiki) and 99.86% (DBLP).
func (s *EGS) AvgSuccessiveMES() float64 {
	if s.Len() < 2 {
		return 1
	}
	total := 0.0
	prev := adjacencyPattern(s.Snapshots[0])
	for i := 1; i < s.Len(); i++ {
		cur := adjacencyPattern(s.Snapshots[i])
		total += sparse.MES(prev, cur)
		prev = cur
	}
	return total / float64(s.Len()-1)
}

func adjacencyPattern(g *Graph) *sparse.Pattern {
	coords := make([]sparse.Coord, 0, g.NumEdges()*2)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.OutNeighbors(u) {
			coords = append(coords, sparse.Coord{Row: u, Col: v})
		}
	}
	return sparse.NewPattern(g.N(), coords)
}
