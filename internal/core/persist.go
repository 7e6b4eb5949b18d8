package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
)

// This file is the durability face of the streaming engine: ExportState
// captures everything a Stream needs to resume exactly where it was —
// graph, factors, ordering, cluster-tracker state and every counter —
// and RestoreStream rebuilds a live Stream from it. Each fact is held
// once: α, the cluster count and the union the container was built from
// are the tracker's, and the matrix the factors belong to is the
// deriver's of the graph. Restored-then-replayed streams are
// bit-identical to uninterrupted ones (the store package's kill-point
// property test pins this down), which is what makes snapshot +
// WAL-tail recovery exact rather than merely approximate.

// StreamState is the complete serializable state of a Stream at some
// point in its life. All reference-typed fields are either deep copies
// (the factor container, which the live stream mutates in place) or
// immutable values safe to share (graph snapshot, patterns, orderings),
// so an exported state stays valid while the source stream keeps
// committing batches.
type StreamState struct {
	Version uint64
	Seq     uint64

	// Graph is the live edge set at export time.
	Graph *graph.Graph
	// Tracker is the α-membership state: α, the cluster count, and the
	// current cluster's bounds, whose union the container was built from.
	Tracker *cluster.TrackerState
	// Ord is the current ordering O = (P, Q).
	Ord sparse.Ordering
	// Static holds the factor values: the factors of the deriver's
	// matrix of Graph under Ord (a failed batch is taken back whole, so
	// the two never part).
	Static *lu.StaticFactors

	Stats StreamStats
}

// ExportState deep-copies the stream's resumable state under the read
// lock. The factor container is cloned (it is updated in place by the
// next batch); everything else is immutable and shared. Exporting
// costs one factor clone — the same price as a history base pin.
func (s *Stream) ExportState() (*StreamState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.c.solver == nil {
		return nil, errors.New("core: stream has no published state to export")
	}
	return &StreamState{
		Version: s.version,
		Seq:     s.seq,
		Graph:   s.builder.Graph(),
		Tracker: s.tracker.State(),
		Ord:     s.c.ord,
		Static:  s.c.static.Clone().(*lu.StaticFactors),
		Stats:   s.stats,
	}, nil
}

// RestoreStream rebuilds a live stream from an exported state. The
// config must agree with the state's tracker on alpha and carry the
// same Derive the original stream used: determinism of the deriver is
// what makes WAL replay exact. Initial is ignored (the state's graph is
// the initial state). OnPublish fires once for the restored version
// before RestoreStream returns, mirroring NewStream's version-0
// publish.
func RestoreStream(cfg StreamConfig, st *StreamState) (*Stream, error) {
	if cfg.Derive == nil {
		return nil, errors.New("core: RestoreStream needs Derive")
	}
	if st.Graph == nil {
		return nil, errors.New("core: stream state has no graph")
	}
	n := st.Graph.N()
	if !st.Ord.Valid() || st.Ord.N() != n {
		return nil, fmt.Errorf("core: stream state ordering invalid for n=%d", n)
	}
	if st.Static == nil {
		return nil, errors.New("core: CLUDE state has no static factors")
	}
	if st.Static.Dim() != n {
		return nil, fmt.Errorf("core: CLUDE factors dimension %d for n=%d", st.Static.Dim(), n)
	}
	if st.Tracker == nil {
		return nil, errors.New("core: CLUDE state has no tracker")
	}
	if cfg.Alpha != st.Tracker.Alpha {
		return nil, fmt.Errorf("core: restoring alpha=%v state under alpha=%v", st.Tracker.Alpha, cfg.Alpha)
	}
	for _, p := range []*sparse.Pattern{st.Tracker.Inter, st.Tracker.Union} {
		if p == nil || p.N() != n {
			return nil, fmt.Errorf("core: CLUDE tracker patterns missing or not %d×%d", n, n)
		}
	}
	if st.Stats.RefFill < 1 {
		return nil, fmt.Errorf("core: CLUDE state has reference fill %d", st.Stats.RefFill)
	}
	tr, err := cluster.RestoreTracker(st.Tracker)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:     cfg,
		version: st.Version,
		seq:     st.Seq,
		builder: graph.NewBuilderFrom(st.Graph),
		tracker: tr,
		c:       newChain(st.Ord),
		stats:   st.Stats,
	}
	s.c.static = st.Static
	s.c.solver = &lu.Solver{F: st.Static, O: st.Ord}
	s.stats.Version = s.version
	// The restored version's predecessor delta is unknowable in this
	// process, so its history record is structural: delta chains restart
	// at the snapshot and WAL-tail replay re-records everything after it.
	s.stepStructural = true
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}
