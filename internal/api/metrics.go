package api

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the bridge between the import-clean subsystems and the
// registry: core and store expose plain Stats() structs and one
// observer hook each (StreamConfig.OnBatch, Options.OnStage); the
// closures here re-express them as registry collectors, so
// /v1/metrics can never drift from what /v1/stats reports.

// registerStreamMetrics exposes the ingest engine's counters, reading
// through Stream.Stats on every scrape.
func registerStreamMetrics(r *metrics.Registry, s *core.Stream) {
	r.GaugeFunc("clude_stream_version", "Latest published factor version of the stream.", nil,
		func() float64 { return float64(s.Version()) })
	cf := func(name, help string, read func(core.StreamStats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(s.Stats()) })
	}
	cf("clude_stream_batches_total", "Delta batches committed (a batch whose strategy step failed is taken back and not counted).",
		func(st core.StreamStats) float64 { return float64(st.Batches) })
	cf("clude_stream_events_total", "Edge events consumed across all batches.",
		func(st core.StreamStats) float64 { return float64(st.Events) })
	cf("clude_stream_events_applied_total", "Edge events that changed the edge set.",
		func(st core.StreamStats) float64 { return float64(st.EventsApplied) })
	cf("clude_stream_clusters_total", "Clusters opened by the maintenance strategy.",
		func(st core.StreamStats) float64 { return float64(st.Clusters) })
	cf("clude_stream_struct_rebuilds_total", "CLUDE fresh re-orderings: the cluster union outgrew the USSP past the kept-order fill bound.",
		func(st core.StreamStats) float64 { return float64(st.StructRebuilds) })
	cf("clude_stream_kept_growths_total", "Batches that grew the cluster union within the kept-order fill bound: structure grown in the kept ordering, factors moved, Bennett update.",
		func(st core.StreamStats) float64 { return float64(st.KeptGrowths) })
	cf("clude_stream_refactorizations_total", "Numerical fallbacks: failed Bennett updates answered by a full refactorization.",
		func(st core.StreamStats) float64 { return float64(st.Refactorizations) })
}

// registerStoreMetrics exposes the durability layer's counters, reading
// through Store.Stats on every scrape.
func registerStoreMetrics(r *metrics.Registry, st *store.Store) {
	cf := func(name, help string, read func(store.StoreStats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(st.Stats()) })
	}
	gf := func(name, help string, read func(store.StoreStats) float64) {
		r.GaugeFunc(name, help, nil, func() float64 { return read(st.Stats()) })
	}
	cf("clude_wal_records_total", "Batches appended to the write-ahead log.",
		func(s store.StoreStats) float64 { return float64(s.WALRecords) })
	cf("clude_wal_bytes_total", "Bytes appended to the write-ahead log.",
		func(s store.StoreStats) float64 { return float64(s.WALBytes) })
	cf("clude_wal_fsyncs_total", "WAL fsync calls.",
		func(s store.StoreStats) float64 { return float64(s.WALFsyncs) })
	gf("clude_wal_segments", "WAL segment files currently on disk.",
		func(s store.StoreStats) float64 { return float64(s.WALSegments) })
	cf("clude_store_snapshots_written_total", "Factor checkpoints written.",
		func(s store.StoreStats) float64 { return float64(s.SnapshotsWritten) })
	cf("clude_store_snapshot_errors_total", "Background checkpoint failures.",
		func(s store.StoreStats) float64 { return float64(s.SnapshotErrors) })
	gf("clude_store_last_snapshot_seq", "WAL sequence number of the newest checkpoint.",
		func(s store.StoreStats) float64 { return float64(s.LastSnapshotSeq) })
	gf("clude_store_last_snapshot_version", "Stream version of the newest checkpoint.",
		func(s store.StoreStats) float64 { return float64(s.LastSnapshotVersion) })
	gf("clude_store_recovered", "1 when this boot warm-restarted from a checkpoint, 0 on cold start.",
		func(s store.StoreStats) float64 {
			if s.Recovery.Recovered {
				return 1
			}
			return 0
		})
	gf("clude_store_replayed_batches", "WAL batches replayed on top of the recovery checkpoint at boot.",
		func(s store.StoreStats) float64 { return float64(s.Recovery.ReplayedBatches) })
}

// IngestHook registers the ingest pipeline's stage histograms
// (clude_ingest_stage_seconds{stage=validate|log|apply|publish}), the
// apply stage's own split
// (clude_ingest_apply_seconds{part=delta|update|order|factorize}: what a
// batch spent before touching the factors, in the Bennett update, in
// the ordering and in the full decomposition — a toggle batch has the
// first two, a rebuild all but update, a kept-order growth all four;
// the parts of a batch add up to its apply stage), and returns the
// core.StreamConfig.OnBatch hook feeding them from each batch's
// BatchTrace. With a tracer it also
// synthesizes one trace per consumed batch: the root is backdated to
// the batch's start (so slow-threshold retention judges the real commit
// latency), the validate/log/apply/publish stages become contiguous
// child spans, and failed batches finish with the error so tail-based
// retention always keeps them.
func IngestHook(r *metrics.Registry, tc *trace.Tracer) func(core.BatchTrace) {
	hists := stageHistograms(r, "clude_ingest_stage_seconds",
		"Per-stage durations of the ingest pipeline: validate, log (WAL append hook), apply (graph + factor step), publish.",
		[]string{"validate", "log", "apply", "publish"})
	const help = "The apply stage's split per batch: delta (graph mutation, dirty-column diff, cluster admission; on a rebuild, materializing the matrix), update (Bennett rank-1 terms), order (Markowitz with its symbolic structure, or the kept ordering's incremental closure), factorize (container + full decomposition, or the grown container with the factors moved in)."
	for name, part := range map[string]string{
		core.PartDelta: "delta", core.PartUpdate: "update", core.PartOrder: "order", core.PartFactorize: "factorize",
	} {
		hists[name] = r.Histogram("clude_ingest_apply_seconds", help, metrics.Labels{"part": part})
	}
	return func(bt core.BatchTrace) {
		for _, s := range bt.Stages {
			if h := hists[s.Name]; h != nil {
				h.Observe(s.D)
			}
		}
		for _, s := range bt.Parts {
			if h := hists[s.Name]; h != nil {
				h.Observe(s.D)
			}
		}
		if tc == nil {
			return
		}
		tr := tc.StartAt("ingest", trace.SpanContext{}, bt.Start)
		root := tr.Root()
		root.SetInt("seq", int64(bt.Seq))
		root.SetInt("version", int64(bt.Version))
		root.SetInt("events", int64(bt.Events))
		root.SetInt("applied", int64(bt.Applied))
		root.SetBool("structural", bt.Structural)
		at := bt.Start
		for _, s := range bt.Stages {
			if s.Name == "" {
				break
			}
			tr.Record(s.Name, at, s.D)
			at = at.Add(s.D)
		}
		tr.Finish(bt.Err)
	}
}

// StoreStageHook registers the durability layer's stage histograms
// (clude_store_stage_seconds{stage=wal_append|snapshot|compaction})
// and returns the store.Options.OnStage hook feeding them. With a
// tracer it also synthesizes a trace for each of the store's slow,
// infrequent stages — snapshot and compaction; wal_append fires on
// every committed batch and is already the ingest trace's log span, so
// it only feeds its histogram. Unknown stages are dropped rather than
// panicking inside the commit path.
func StoreStageHook(r *metrics.Registry, tc *trace.Tracer) func(stage string, d time.Duration) {
	hists := stageHistograms(r, "clude_store_stage_seconds",
		"Per-stage durations of the durability layer: wal_append (durable log write), snapshot (checkpoint export + write), compaction (history sidecar rewrite, nested inside snapshot).",
		[]string{"wal_append", "snapshot", "compaction"})
	return func(stage string, d time.Duration) {
		if h := hists[stage]; h != nil {
			h.Observe(d)
		}
		if tc != nil && (stage == "snapshot" || stage == "compaction") {
			tc.StartAt("store."+stage, trace.SpanContext{}, time.Now().Add(-d)).Finish(nil)
		}
	}
}

// stageHistograms registers one histogram of the family per stage,
// keyed by the stage's name.
func stageHistograms(r *metrics.Registry, name, help string, stages []string) map[string]*metrics.Histogram {
	hists := make(map[string]*metrics.Histogram, len(stages))
	for _, s := range stages {
		hists[s] = r.Histogram(name, help, metrics.Labels{"stage": s})
	}
	return hists
}
