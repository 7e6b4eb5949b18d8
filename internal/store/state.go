package store

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Stream-state (snapshot) codec: the complete core.StreamState as one
// checksummed frame. This is the checkpoint half of checkpoint+log —
// everything a stream needs to resume exactly, so recovery only has to
// replay the WAL tail, never re-derive history.

const stateMagic = "CLUD"

// stateVersion is the CLUD frame's format version, which moves apart
// from the CLUS frame's codecVersion. Version 4 holds each fact of the
// stream once. Versions 2 and 3 also restate the tracker and the graph
// (docs/PERSISTENCE.md lists how); they are still read, older ones
// refused.
const (
	stateVersion       = 4
	oldestStateVersion = 2
)

// errForeignCheckpoint reports a version 2 or 3 checkpoint of a stream
// that maintained another algorithm than CLUDE (BF, as an older binary
// wrote it). It is not corrupt, so recovery fails the boot on it rather
// than skipping it for an older checkpoint or cold-starting over it.
var errForeignCheckpoint = errors.New("a stream maintains CLUDE only")

// WriteStreamState serializes a complete stream checkpoint.
func WriteStreamState(w io.Writer, st *core.StreamState) error {
	c := newCW(w)
	c.header(stateMagic, stateVersion)
	c.u64(st.Version)
	c.u64(st.Seq)
	writeGraphBody(c, st.Graph)
	writeTrackerBody(c, st.Tracker)
	writeOrdering(c, st.Ord)
	writeFactorsBody(c, st.Static)

	// Counters, individually: StreamStats excludes the Bennett block
	// from JSON, so the layout is positional (a new field appends under
	// a bumped version).
	c.i64(int64(st.Stats.Batches))
	c.i64(int64(st.Stats.Events))
	c.i64(int64(st.Stats.EventsApplied))
	c.i64(int64(st.Stats.StructRebuilds))
	c.i64(int64(st.Stats.Refactorizations))
	c.i64(int64(st.Stats.Bennett.Rank1Updates))
	c.i64(int64(st.Stats.Bennett.StepsTouched))
	c.i64(int64(st.Stats.Bennett.Dropped))
	c.i64(int64(st.Stats.KeptGrowths))
	c.i64(int64(st.Stats.RefFill))

	if c.err != nil {
		return c.err
	}
	return c.seal()
}

// oldFields are what a version 2 or 3 frame carries beside a version 4
// one's: each restates the tracker, the graph or a constant.
type oldFields struct {
	algorithm string
	alpha     float64
	prev      *sparse.CSR
	union     *sparse.Pattern
	clusters  int
}

// ReadStreamState parses a checkpoint back into a state ready for
// core.RestoreStream. Every pattern and the container must be n×n for
// the graph's n, or the frame is ErrCorrupt: a stream restored from it
// would index past them on its first batch.
//
// A version 2 or 3 frame reads to the state its version 4 re-encoding
// does. Its extra fields must agree with the tracker and the graph, or
// the frame is ErrCorrupt; one of another algorithm is refused by name.
// A version 2 frame comes from a binary that re-ordered on every growth
// batch, so its stream kept no growth and its container is the one its
// cluster's last fresh ordering built: KeptGrowths is 0 and RefFill the
// container's size, exactly what the kept-order rule would have
// recorded.
func ReadStreamState(r io.Reader) (*core.StreamState, error) {
	c := newCR(r)
	version, err := c.expectHeader(stateMagic, oldestStateVersion, stateVersion)
	if err != nil {
		return nil, err
	}
	old := version < 4
	var of oldFields
	if old {
		of.algorithm, of.alpha = c.str(64), c.f64()
	}
	st := &core.StreamState{Version: c.u64(), Seq: c.u64()}
	gb := readGraphBody(c)
	if !old || c.bool() {
		st.Tracker = readTrackerBody(c)
	}
	st.Ord = readOrdering(c)
	if !old || c.bool() {
		st.Static = readFactorsBody(c)
	}
	if old {
		of.prev, of.union = readCSR(c), readPattern(c)
	}

	st.Stats.Batches = c.intv()
	st.Stats.Events = c.intv()
	st.Stats.EventsApplied = c.intv()
	if old {
		of.clusters = c.intv()
	}
	st.Stats.StructRebuilds = c.intv()
	st.Stats.Refactorizations = c.intv()
	st.Stats.Bennett.Rank1Updates = c.intv()
	st.Stats.Bennett.StepsTouched = c.intv()
	st.Stats.Bennett.Dropped = c.intv()
	if old {
		// The linked-list counters of a format that also carried INC/CINC
		// streams: a static stream has none.
		if retiredIns, retiredScans := c.intv(), c.intv(); c.err == nil && (retiredIns != 0 || retiredScans != 0) {
			c.fail(fmt.Errorf("%w: linked-list counters %d, %d in a static stream's checkpoint", ErrCorrupt, retiredIns, retiredScans))
		}
	}
	switch {
	case version >= 3:
		st.Stats.KeptGrowths = c.intv()
		st.Stats.RefFill = c.intv()
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
	if old && of.algorithm != string(core.CLUDE) {
		return nil, fmt.Errorf("store: checkpoint of a %s stream: %w", of.algorithm, errForeignCheckpoint)
	}
	// The ordering's length is proven by its bytes; the vertex count
	// is not, until it matches.
	n := len(st.Ord.Row)
	if gb.n != n {
		return nil, fmt.Errorf("%w: graph of %d vertices under an ordering of %d", ErrCorrupt, gb.n, n)
	}
	if err := consistent(st, n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if old {
		if err := of.agree(st, n); err != nil {
			return nil, fmt.Errorf("%w: version %d checkpoint: %v", ErrCorrupt, version, err)
		}
	}
	st.Graph = graph.New(gb.n, gb.directed, gb.edges)
	return st, nil
}

// consistent checks that a decoded state can be restored and stream on:
// the container and the tracker's patterns are n×n, the tracker's
// counters are plausible and the reference fill is positive.
func consistent(st *core.StreamState, n int) error {
	if st.Static == nil || st.Static.Dim() != n {
		return fmt.Errorf("no factor container of dimension %d", n)
	}
	if st.Tracker == nil {
		return errors.New("no tracker")
	}
	for _, p := range []*sparse.Pattern{st.Tracker.Inter, st.Tracker.Union} {
		if p == nil || p.N() != n {
			return fmt.Errorf("tracker patterns missing or not %d×%d", n, n)
		}
	}
	if _, err := cluster.RestoreTracker(st.Tracker); err != nil {
		return err
	}
	if st.Stats.RefFill < 1 {
		return fmt.Errorf("reference fill %d", st.Stats.RefFill)
	}
	return nil
}

// agree checks an older frame's extra fields against the state read
// beside them.
func (of *oldFields) agree(st *core.StreamState, n int) error {
	switch {
	case of.alpha != st.Tracker.Alpha:
		return fmt.Errorf("alpha %v, tracker's %v", of.alpha, st.Tracker.Alpha)
	case of.clusters != st.Tracker.Clusters:
		return fmt.Errorf("%d clusters, tracker's %d", of.clusters, st.Tracker.Clusters)
	case of.union == nil || !of.union.Equal(st.Tracker.Union):
		return errors.New("structure union differs from the tracker's union")
	case of.prev == nil || of.prev.N() != n:
		return fmt.Errorf("permuted matrix missing or not %d×%d", n, n)
	}
	return nil
}
