package core

import (
	"fmt"

	"repro/internal/bennett"
	"repro/internal/graph"
	"repro/internal/lu"
)

// ReplayOptions configures Replay, mirroring the Options fields that
// make sense for the sequential streaming engine.
type ReplayOptions struct {
	// Alpha is CLUDE's α-clustering threshold.
	Alpha float64
	// OnFactors receives every version in order, i = 0..T-1, with the
	// same validity contract as Options.OnFactors.
	OnFactors func(i int, s *lu.Solver)
	// RetainFactors hands OnFactors a clone (lu.Solver.Clone), valid
	// indefinitely.
	RetainFactors bool
}

// Replay is the test reference for the offline sequence shape over the
// streaming engine: snapshot 0 seeds a Stream and every consecutive
// snapshot pair is diffed into one delta batch, so a pre-materialized
// EGS and a live feed of the same deltas drive the engine through the
// identical code path (the bit-for-bit equivalence property stream_test
// pins down, and the replay/* golden hashes). OnFactors fires strictly
// in snapshot order.
func Replay(egs *graph.EGS, derive graph.Deriver, opt ReplayOptions) (StreamStats, error) {
	cfg := StreamConfig{Alpha: opt.Alpha, Initial: egs.Snapshots[0], Derive: derive}
	if opt.OnFactors != nil {
		cfg.OnPublish = func(sv *lu.Solver, rec bennett.VersionRecord) {
			if opt.RetainFactors {
				sv = sv.Clone()
			}
			opt.OnFactors(int(rec.Version), sv)
		}
	}
	st, err := NewStream(cfg)
	if err != nil {
		return StreamStats{}, err
	}
	defer st.Close()
	for t := 1; t < egs.Len(); t++ {
		if _, err := st.Apply(graph.Diff(egs.Snapshots[t-1], egs.Snapshots[t])); err != nil {
			return st.Stats(), fmt.Errorf("core: replay snapshot %d: %w", t, err)
		}
	}
	return st.Stats(), nil
}
