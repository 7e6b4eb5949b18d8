package store

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
)

// Stream-state (snapshot) codec: the complete core.StreamState as one
// checksummed frame. This is the checkpoint half of checkpoint+log —
// everything a stream needs to resume exactly, so recovery only has to
// replay the WAL tail, never re-derive history.

const stateMagic = "CLUD"

// WriteStreamState serializes a complete stream checkpoint.
func WriteStreamState(w io.Writer, st *core.StreamState) error {
	c := newCW(w)
	c.header(stateMagic, codecVersion)

	c.str(string(st.Algorithm))
	c.f64(st.Alpha)
	c.u64(st.Version)
	c.u64(st.Seq)

	writeGraphBody(c, st.Graph)
	writeTracker(c, st.Tracker)
	writeOrdering(c, st.Ord)

	switch {
	case st.Dyn != nil:
		c.bool(true)
		writeFactorsBody(c, st.Dyn)
	case st.Static != nil:
		c.bool(true)
		writeFactorsBody(c, st.Static)
	default:
		c.bool(false)
	}

	writeCSR(c, st.Prev)
	writePattern(c, st.StructUnion)

	// Counters, individually: StreamStats excludes the Bennett block
	// from JSON, so the layout is positional (a new field appends under
	// a bumped version).
	c.i64(int64(st.Stats.Batches))
	c.i64(int64(st.Stats.Events))
	c.i64(int64(st.Stats.EventsApplied))
	c.i64(int64(st.Stats.Clusters))
	c.i64(int64(st.Stats.StructRebuilds))
	c.i64(int64(st.Stats.Refactorizations))
	c.i64(int64(st.Stats.Bennett.Rank1Updates))
	c.i64(int64(st.Stats.Bennett.StepsTouched))
	c.i64(int64(st.Stats.Bennett.Dropped))
	c.i64(int64(st.RetiredInserts))
	c.i64(int64(st.RetiredScans))

	if c.err != nil {
		return c.err
	}
	return c.seal()
}

// ReadStreamState parses a WriteStreamState frame back into a state
// ready for core.RestoreStream.
func ReadStreamState(r io.Reader) (*core.StreamState, error) {
	c := newCR(r)
	if err := c.expectHeader(stateMagic, codecVersion); err != nil {
		return nil, err
	}
	st := &core.StreamState{
		Algorithm: core.Algorithm(c.str(64)),
		Alpha:     c.f64(),
		Version:   c.u64(),
		Seq:       c.u64(),
	}
	gb := readGraphBody(c)
	st.Tracker = readTracker(c)
	st.Ord = readOrdering(c)

	if c.bool() && c.err == nil {
		switch f := readFactorsBody(c).(type) {
		case *lu.DynamicFactors:
			st.Dyn = f
		case *lu.StaticFactors:
			st.Static = f
		}
	}

	st.Prev = readCSR(c)
	st.StructUnion = readPattern(c)

	st.Stats.Batches = c.intv()
	st.Stats.Events = c.intv()
	st.Stats.EventsApplied = c.intv()
	st.Stats.Clusters = c.intv()
	st.Stats.StructRebuilds = c.intv()
	st.Stats.Refactorizations = c.intv()
	st.Stats.Bennett.Rank1Updates = c.intv()
	st.Stats.Bennett.StepsTouched = c.intv()
	st.Stats.Bennett.Dropped = c.intv()
	st.RetiredInserts = c.intv()
	st.RetiredScans = c.intv()
	st.Stats.Version = st.Version

	if c.err != nil {
		return nil, c.err
	}
	if err := c.verify(); err != nil {
		return nil, err
	}
	// The ordering's length is proven by its bytes; the vertex count
	// is not, until it matches.
	if gb.n != len(st.Ord.Row) {
		return nil, fmt.Errorf("%w: graph of %d vertices under an ordering of %d", ErrCorrupt, gb.n, len(st.Ord.Row))
	}
	st.Graph = graph.New(gb.n, gb.directed, gb.edges)
	return st, nil
}
