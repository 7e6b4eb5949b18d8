package serve

// Stage tracing of the query pipeline. Every query's journey through
//
//	resolve ──▶ coalesce ──▶ admit ──▶ batch ──▶ solve
//
// is timed into one log₂-bucketed histogram per stage
// (metrics.Histogram — the same buckets back Stats.QueryStages and the
// clude_query_stage_seconds exposition, so /stats and /metrics can
// never disagree):
//
//   - resolve: routing + validation time of e.resolve, every query.
//   - coalesce: how long a coalesced follower waited on the shared
//     flight (followers only — the leader's wait is admit + batch +
//     solve).
//   - admit: queue wait of enqueued tasks, from enqueue to a worker
//     dequeuing them.
//   - batch: from dequeue to the task's solve starting — the worker's
//     own bookkeeping, a microsecond or two. The worker no longer
//     groups tasks; the stage keeps its name because the committed
//     benchmark reads clude_query_stage_seconds{stage="batch"}.
//   - solve: one observation per task, covering the factor
//     substitution (or the Katz factorization) and answer publication.
//
// The end-to-end latency histogram (Stats.LatencyP*, exposed as
// clude_query_latency_seconds) is observed separately in Query.
const (
	stageResolve = iota
	stageCoalesce
	stageAdmit
	stageBatch
	stageSolve
	numStages
)

// stageNames indexes the stage histograms; these strings are the
// `stage` label values of clude_query_stage_seconds and the keys of
// Stats.QueryStages.
var stageNames = [numStages]string{"resolve", "coalesce", "admit", "batch", "solve"}

// StageLatency summarizes one pipeline stage's duration histogram in
// Stats. Percentiles are bucket upper bounds (≤ 2× the true quantile),
// in microseconds, matching the top-level latency fields.
type StageLatency struct {
	Count int64   `json:"count"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
}
