package bench

import (
	"fmt"
	"time"

	"repro/internal/bennett"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/xrand"
)

// History measures the delta-compressed version history (serve
// Config.HistoryBase) against keeping a clone of every version, on both
// sides of its trade:
//
//   - resident bytes: full clones at every version (base spacing 1)
//     vs. base clones + the Bennett delta log at several base
//     spacings — the memory the feature exists to save.
//     A clone owns its values and shares its index structure with every
//     other clone of the same structural run (lu.MemBytes), so both
//     sides pay for values per retained version and for the structure
//     once per structural version;
//   - materialization latency vs. replay depth: what a query for a
//     non-resident version pays to clone its base and replay the
//     recorded rank-1 terms — the latency the savings cost.
//
// The workload is a CLUDE stream over an edge-toggle event sequence
// (events drawn from the initial edge set), which keeps the pattern
// inside the cluster union so versions are Bennett deltas rather than
// structural rebuilds — the regime delta chains compress.
func History(d Datasets) ([]*Table, error) {
	n := d.Wiki.N
	T := d.Wiki.T
	rng := xrand.New(7)
	es := make([]graph.Edge, 0, d.Wiki.InitialEdges)
	for k := 0; k < d.Wiki.InitialEdges; k++ {
		es = append(es, graph.Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}

	// One streamed run, recording per-version sizes and delta records;
	// clones are retained only at potential bases (every 8th version
	// plus structural ones) so the harness itself does not pay
	// clone-per-version memory at larger scales.
	const cloneEvery = 8
	log := bennett.NewHistoryLog()
	var (
		recs       []bennett.VersionRecord
		sizes      []int64 // per version: what a clone of it owns, plus the structure when it starts one
		bases      = map[uint64]lu.Factors{}
		structural int
	)
	stream, err := core.NewStream(core.StreamConfig{
		Algorithm: core.CLUDE, Alpha: 0.95,
		Initial: graph.New(n, true, es),
		Derive:  graph.RWRMatrix(d.Damping),
		OnPublish: func(s *lu.Solver, rec bennett.VersionRecord) {
			log.Record(rec)
			recs = append(recs, rec)
			size, structure := lu.MemBytes(s.F)
			if rec.Structural {
				structural++
				size += structure
			}
			sizes = append(sizes, size)
			if rec.Structural || rec.Version%cloneEvery == 0 {
				bases[rec.Version] = s.Clone().F
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	for b := 0; b < T; b++ {
		evs := make([]graph.EdgeEvent, 8)
		for k := range evs {
			e := es[rng.Intn(len(es))]
			op := graph.EdgeDelete
			if rng.Intn(2) == 0 {
				op = graph.EdgeInsert
			}
			evs[k] = graph.EdgeEvent{From: e.From, To: e.To, Op: op}
		}
		if _, err := stream.Apply(evs); err != nil {
			return nil, err
		}
	}

	var cloneBytes, logBytes int64
	for i, rec := range recs {
		cloneBytes += sizes[i]
		logBytes += bennett.RecordBytes(rec)
	}
	mb := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

	residents := &Table{
		Title:  fmt.Sprintf("Delta-compressed history: resident bytes vs base spacing (%d versions, %d structural)", len(recs), structural),
		Header: []string{"spacing", "bases", "base MB", "log MB", "total MB", "reduction"},
		Rows: [][]string{{
			"1 (clone/ckpt)", fmt.Sprint(len(recs)), mb(cloneBytes), "0.00", mb(cloneBytes), "1.0x",
		}},
	}
	for _, spacing := range []uint64{8, 16, 32} {
		if spacing >= uint64(len(recs)) {
			continue
		}
		var baseBytes int64
		nBases := 0
		for i, rec := range recs {
			if rec.Structural || rec.Version%spacing == 0 {
				baseBytes += sizes[i]
				nBases++
			}
		}
		total := baseBytes + logBytes
		residents.Rows = append(residents.Rows, []string{
			fmt.Sprint(spacing), fmt.Sprint(nBases), mb(baseBytes), mb(logBytes), mb(total),
			fmt.Sprintf("%.1fx", float64(cloneBytes)/float64(total)),
		})
	}

	// Latency side: replay from the retained base with the longest
	// following run of non-structural records, at doubling depths. The
	// depth-0 row is the clone alone — the irreducible cost a resident
	// hit avoids and every materialization starts with.
	baseVer, runLen := uint64(0), 0
	for v := range bases {
		l := 0
		for _, rec := range recs {
			if rec.Version <= v {
				continue
			}
			if rec.Version != v+uint64(l)+1 || rec.Structural {
				break
			}
			l++
		}
		if l > runLen {
			baseVer, runLen = v, l
		}
	}
	latency := &Table{
		Title:  fmt.Sprintf("Delta-compressed history: materialization latency vs replay depth (base=v%d)", baseVer),
		Header: []string{"depth", "materialize", "per version"},
	}
	if runLen > 0 {
		base := bases[baseVer]
		var mw bennett.MaterializeWorkspace
		for _, depth := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
			if depth > runLen {
				break
			}
			target := baseVer + uint64(depth)
			// Warm once (allocates the workspace), then time.
			if _, err := mw.Materialize(base, log, baseVer, target, nil); err != nil {
				return nil, fmt.Errorf("bench: history depth %d: %w", depth, err)
			}
			reps := 0
			t0 := time.Now()
			for time.Since(t0) < 30*time.Millisecond || reps < 5 {
				if _, err := mw.Materialize(base, log, baseVer, target, nil); err != nil {
					return nil, err
				}
				reps++
			}
			per := time.Since(t0) / time.Duration(reps)
			perVersion := "-"
			if depth > 0 {
				perVersion = dur(per / time.Duration(depth))
			}
			latency.Rows = append(latency.Rows, []string{fmt.Sprint(depth), dur(per), perVersion})
		}
	}
	if len(latency.Rows) == 0 {
		latency.Rows = append(latency.Rows, []string{"0", "-", "-"})
	}
	return []*Table{residents, latency}, nil
}
