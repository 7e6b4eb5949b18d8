package store

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// Graph and cluster-tracker codecs. A graph is stored as its canonical
// edge list and rebuilt through graph.New, whose construction is
// deterministic — the restored snapshot is field-for-field identical to
// the one written, so matrices derived from it are bit-identical too.

func writeGraphBody(c *cw, g *graph.Graph) {
	c.i64(int64(g.N()))
	c.bool(g.Directed())
	es := g.Edges()
	c.u64(uint64(len(es)))
	for _, e := range es {
		c.i64(int64(e.From))
		c.i64(int64(e.To))
	}
}

// graphBody is a decoded graph not yet built: its vertex count is only
// a number the frame claims, and graph.New allocates in proportion to
// it, so the caller builds the graph once the frame's checksum holds
// and the count matches a length the data itself proves.
type graphBody struct {
	n        int
	directed bool
	edges    []graph.Edge
}

func readGraphBody(c *cr) graphBody {
	n := c.intv()
	directed := c.bool()
	m := c.length(maxSliceLen)
	if c.err != nil {
		return graphBody{}
	}
	if n < 0 {
		c.fail(fmt.Errorf("%w: negative vertex count %d", ErrCorrupt, n))
		return graphBody{}
	}
	edges := make([]graph.Edge, 0, min(m, preallocCap))
	for k := 0; k < m && c.err == nil; k++ {
		u, v := c.intv(), c.intv()
		if u < 0 || u >= n || v < 0 || v >= n {
			c.fail(fmt.Errorf("%w: edge (%d,%d) outside [0,%d)", ErrCorrupt, u, v, n))
			return graphBody{}
		}
		edges = append(edges, graph.Edge{From: u, To: v})
	}
	return graphBody{n: n, directed: directed, edges: edges}
}

// writeTracker / readTracker encode the α-membership state; nil is
// legal (BF/INC streams have no tracker).
func writeTracker(c *cw, st *cluster.TrackerState) {
	if st == nil {
		c.bool(false)
		return
	}
	c.bool(true)
	c.f64(st.Alpha)
	c.i64(int64(st.Start))
	c.i64(int64(st.End))
	c.i64(int64(st.Clusters))
	writePattern(c, st.Inter)
	writePattern(c, st.Union)
}

func readTracker(c *cr) *cluster.TrackerState {
	if !c.bool() || c.err != nil {
		return nil
	}
	st := &cluster.TrackerState{
		Alpha:    c.f64(),
		Start:    c.intv(),
		End:      c.intv(),
		Clusters: c.intv(),
	}
	st.Inter = readPattern(c)
	st.Union = readPattern(c)
	if c.err != nil {
		return nil
	}
	return st
}
