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
// graph, factors, ordering, cluster-tracker state, the previous matrix,
// and every counter — and RestoreStream rebuilds a live Stream from it.
// Restored-then-replayed streams are bit-identical to uninterrupted
// ones (the store package's kill-point property test pins this down),
// which is what makes snapshot + WAL-tail recovery exact rather than
// merely approximate.

// StreamState is the complete serializable state of a Stream at some
// point in its life. All reference-typed fields are either deep copies
// (the factor containers, which the live stream mutates in place) or
// immutable values safe to share (graph snapshot, patterns, matrices,
// orderings), so an exported state stays valid while the source stream
// keeps committing batches.
type StreamState struct {
	Algorithm Algorithm
	Alpha     float64
	Version   uint64
	Seq       uint64

	// Graph is the live edge set at export time.
	Graph *graph.Graph
	// Tracker is the α-membership state (nil for BF/INC).
	Tracker *cluster.TrackerState
	// Ord is the current ordering O = (P, Q).
	Ord sparse.Ordering
	// Static holds the factor values for BF/CLUDE (nil otherwise);
	// Dyn the linked-list container for INC/CINC (nil otherwise).
	Static *lu.StaticFactors
	Dyn    *lu.DynamicFactors
	// Prev is the matrix the factors belong to, in the current ordering:
	// the deriver's matrix of Graph under Ord (a failed batch is taken
	// back whole, so the two never part). The live stream does not hold
	// it — a batch's delta comes from the columns it dirtied — and
	// materializes it for the export; a restored stream checks its shape
	// and goes on from Graph.
	Prev *sparse.CSR
	// StructUnion is the union pattern the CLUDE USSP container was
	// built from (nil for other strategies).
	StructUnion *sparse.Pattern

	Stats                        StreamStats
	RetiredInserts, RetiredScans int
}

// ExportState deep-copies the stream's resumable state under the read
// lock. The factor containers are cloned (they are updated in place by
// the next batch); everything else is immutable and shared. Exporting
// costs one factor clone — the same price as a history base pin — and
// one derivation of the matrix.
func (s *Stream) ExportState() (*StreamState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.solver == nil {
		return nil, errors.New("core: stream has no published state to export")
	}
	st := &StreamState{
		Algorithm:      s.cfg.Algorithm,
		Alpha:          s.cfg.Alpha,
		Version:        s.version,
		Seq:            s.seq,
		Graph:          s.builder.Graph(),
		Ord:            s.ord,
		Prev:           s.current().PermuteInv(s.ord, s.colInv),
		StructUnion:    s.structUnion,
		Stats:          s.stats,
		RetiredInserts: s.retiredIns,
		RetiredScans:   s.retiredScan,
	}
	if s.tracker != nil {
		st.Tracker = s.tracker.State()
	}
	if s.dyn != nil {
		st.Dyn = s.dyn.Clone().(*lu.DynamicFactors)
	} else if s.static != nil {
		st.Static = s.static.Clone().(*lu.StaticFactors)
	}
	return st, nil
}

// RestoreStream rebuilds a live stream from an exported state. The
// config must agree with the state on algorithm and (for CINC/CLUDE)
// alpha — factors maintained under one strategy cannot be resumed under
// another — and must carry the same Derive the original stream used:
// determinism of the deriver is what makes WAL replay exact. Initial is
// ignored (the state's graph is the initial state). OnPublish fires
// once for the restored version before RestoreStream returns, mirroring
// NewStream's version-0 publish.
func RestoreStream(cfg StreamConfig, st *StreamState) (*Stream, error) {
	if cfg.Derive == nil {
		return nil, errors.New("core: RestoreStream needs Derive")
	}
	if cfg.Algorithm != st.Algorithm {
		return nil, fmt.Errorf("core: restoring %s state under %s", st.Algorithm, cfg.Algorithm)
	}
	needsTracker := st.Algorithm == CINC || st.Algorithm == CLUDE
	if needsTracker && cfg.Alpha != st.Alpha {
		return nil, fmt.Errorf("core: restoring alpha=%v state under alpha=%v", st.Alpha, cfg.Alpha)
	}
	if st.Graph == nil {
		return nil, errors.New("core: stream state has no graph")
	}
	n := st.Graph.N()
	if !st.Ord.Valid() || st.Ord.N() != n {
		return nil, fmt.Errorf("core: stream state ordering invalid for n=%d", n)
	}
	if st.Prev == nil || st.Prev.N() != n {
		return nil, errors.New("core: stream state previous matrix missing or mis-sized")
	}
	s := &Stream{
		cfg:         cfg,
		version:     st.Version,
		seq:         st.Seq,
		builder:     graph.NewBuilderFrom(st.Graph),
		ord:         st.Ord,
		rowInv:      st.Ord.Row.Inverse(),
		colInv:      st.Ord.Col.Inverse(),
		structUnion: st.StructUnion,
		stats:       st.Stats,
		retiredIns:  st.RetiredInserts,
		retiredScan: st.RetiredScans,
	}
	if needsTracker {
		if st.Tracker == nil {
			return nil, fmt.Errorf("core: %s state has no tracker", st.Algorithm)
		}
		tr, err := cluster.RestoreTracker(st.Tracker)
		if err != nil {
			return nil, err
		}
		s.tracker = tr
	}
	switch st.Algorithm {
	case INC, CINC:
		if st.Dyn == nil {
			return nil, fmt.Errorf("core: %s state has no dynamic factors", st.Algorithm)
		}
		if st.Dyn.Dim() != n {
			return nil, fmt.Errorf("core: dynamic factors dimension %d for n=%d", st.Dyn.Dim(), n)
		}
		s.dyn = st.Dyn
		s.solver = &lu.Solver{F: s.dyn, O: s.ord}
	case BF, CLUDE:
		if st.Static == nil {
			return nil, fmt.Errorf("core: %s state has no static factors", st.Algorithm)
		}
		if st.Static.Dim() != n {
			return nil, fmt.Errorf("core: static factors dimension %d for n=%d", st.Static.Dim(), n)
		}
		if st.Algorithm == CLUDE && st.StructUnion == nil {
			return nil, errors.New("core: CLUDE state has no structure union")
		}
		s.static = st.Static
		s.solver = &lu.Solver{F: s.static, O: s.ord}
	default:
		return nil, fmt.Errorf("core: unknown streaming algorithm %q", st.Algorithm)
	}
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
