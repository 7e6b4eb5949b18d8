package store

import (
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// writeOldStreamState writes st in the layout of CLUD version 2 or 3, as
// a binary before version 4 wrote its checkpoints: the algorithm's name
// alg and α first, the tracker and the factors behind presence flags,
// then the matrix the factors belong to in their ordering (every stream
// of this package's tests derives RWR at damping 0.85), the structure
// union (the tracker's union), the counters with the cluster count and
// two retired linked-list counters among them, and, from version 3, the
// kept-order fields. A stream of another algorithm (BF) held no tracker
// and no structure union.
func writeOldStreamState(w io.Writer, st *core.StreamState, version byte, alg core.Algorithm) error {
	tr := st.Tracker
	c := newCW(w)
	c.header(stateMagic, version)
	c.str(string(alg))
	c.f64(tr.Alpha)
	c.u64(st.Version)
	c.u64(st.Seq)
	writeGraphBody(c, st.Graph)
	c.bool(alg == core.CLUDE)
	if alg == core.CLUDE {
		writeTrackerBody(c, tr)
	}
	writeOrdering(c, st.Ord)
	c.bool(true)
	writeFactorsBody(c, st.Static)
	writeCSR(c, graph.Derive(graph.RWRMatrix(0.85), st.Graph).PermuteInv(st.Ord, st.Ord.Col.Inverse()))
	if alg == core.CLUDE {
		writePattern(c, tr.Union)
	} else {
		writePattern(c, nil)
	}
	c.i64(int64(st.Stats.Batches))
	c.i64(int64(st.Stats.Events))
	c.i64(int64(st.Stats.EventsApplied))
	c.i64(int64(tr.Clusters))
	c.i64(int64(st.Stats.StructRebuilds))
	c.i64(int64(st.Stats.Refactorizations))
	c.i64(int64(st.Stats.Bennett.Rank1Updates))
	c.i64(int64(st.Stats.Bennett.StepsTouched))
	c.i64(int64(st.Stats.Bennett.Dropped))
	c.i64(0)
	c.i64(0)
	if version >= 3 {
		c.i64(int64(st.Stats.KeptGrowths))
		c.i64(int64(st.Stats.RefFill))
	}
	if c.err != nil {
		return c.err
	}
	return c.seal()
}

// writeCSR encodes a sparse matrix as readCSR decodes it.
func writeCSR(c *cw, m *sparse.CSR) {
	c.bool(true)
	rowPtr, colIdx, vals := m.Arrays()
	c.i64(int64(m.N()))
	c.intsDelta(rowPtr)
	c.intsDelta(colIdx)
	c.floats(vals)
}
