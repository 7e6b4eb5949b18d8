package store

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// Stream-state (snapshot) codec: the complete core.StreamState as one
// checksummed frame. This is the checkpoint half of checkpoint+log —
// everything a stream needs to resume exactly, so recovery only has to
// replay the WAL tail, never re-derive history.

const stateMagic = "CLUD"

// stateVersion is the CLUD frame's format version, which moves apart
// from the CLUS frame's codecVersion. Version 3 appends the stream's
// kept-order counter and reference fill to version 2's layout.
// Version 2 frames, which every checkpoint of a binary without the
// kept-order rule is, are still read (ReadStreamState derives the two
// fields); older ones are refused.
const (
	stateVersion       = 3
	oldestStateVersion = 2
)

// WriteStreamState serializes a complete stream checkpoint.
func WriteStreamState(w io.Writer, st *core.StreamState) error {
	return writeStreamState(w, st, stateVersion)
}

// writeStreamState writes st in the layout of the given version, which
// is stateVersion or, to pin what ReadStreamState makes of an older
// binary's checkpoints, version 2 (no kept-order fields).
func writeStreamState(w io.Writer, st *core.StreamState, version byte) error {
	c := newCW(w)
	c.header(stateMagic, version)

	c.str(string(st.Algorithm))
	c.f64(st.Alpha)
	c.u64(st.Version)
	c.u64(st.Seq)

	writeGraphBody(c, st.Graph)
	writeTracker(c, st.Tracker)
	writeOrdering(c, st.Ord)

	c.bool(st.Static != nil)
	if st.Static != nil {
		writeFactorsBody(c, st.Static)
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
	// The retired linked-list counters of a format that also carried
	// INC/CINC streams: a CLUDE stream has none, so both are 0.
	c.i64(0)
	c.i64(0)
	// Version 3: the kept-order growths and the β rule's reference.
	if version >= 3 {
		c.i64(int64(st.Stats.KeptGrowths))
		c.i64(int64(st.Stats.RefFill))
	}

	if c.err != nil {
		return c.err
	}
	return c.seal()
}

// ReadStreamState parses a WriteStreamState frame back into a state
// ready for core.RestoreStream. A version 2 frame comes from a binary
// that re-ordered on every growth batch, so its stream kept no growth
// and its container is the one its cluster's last fresh ordering built:
// KeptGrowths is 0 and RefFill the container's size, exactly what the
// kept-order rule would have recorded, and WAL replay from it decides
// as a stream running this binary from that state would.
func ReadStreamState(r io.Reader) (*core.StreamState, error) {
	c := newCR(r)
	version, err := c.expectHeader(stateMagic, oldestStateVersion, stateVersion)
	if err != nil {
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
		st.Static = readFactorsBody(c)
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
	if retiredIns, retiredScans := c.intv(), c.intv(); c.err == nil && (retiredIns != 0 || retiredScans != 0) {
		c.fail(fmt.Errorf("%w: linked-list counters %d, %d in a static stream's checkpoint", ErrCorrupt, retiredIns, retiredScans))
	}
	switch {
	case version >= 3:
		st.Stats.KeptGrowths = c.intv()
		if st.Stats.RefFill = c.intv(); c.err == nil && st.Stats.RefFill < 1 {
			c.fail(fmt.Errorf("%w: reference fill %d", ErrCorrupt, st.Stats.RefFill))
		}
	case st.Static != nil:
		st.Stats.RefFill = st.Static.Size()
	}
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
