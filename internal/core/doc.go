// Package core implements the paper's contribution: the four
// algorithms for the LUDEM problem (Definition 3) — BF, INC, CINC and
// CLUDE (§4) — plus the quality-constrained LUDEM-QC variants (§5),
// with the per-phase timing breakdown the evaluation section reports
// (clustering time t_c, Markowitz time t_M, full LU decomposition time
// t_d, Bennett time t_B).
//
// All algorithms stream through the evolving matrix sequence: as soon
// as matrix i's factors are current, the OnFactors callback (if any)
// receives a ready-to-use solver for A_i. This is the intended usage
// pattern — compute the measure series (PageRank, RWR, …) snapshot by
// snapshot — and keeps memory bounded for long sequences.
//
// # Parallel execution
//
// Clusters are factored independently (one ordering, one full LU, one
// Bennett chain per cluster), so every algorithm runs its clusters on
// a bounded worker pool. Options.Workers sets the pool size; the
// default (Workers == 0) is runtime.GOMAXPROCS(0), and Workers == 1
// selects the sequential path with no synchronization on the hot
// path. Each worker keeps its own reusable scratch (the LU work
// vector, the Bennett recurrence vectors, the per-cluster inverse
// permutation), so worker count does not change allocation behavior
// per cluster.
//
// # Callback ordering
//
// OnFactors fires exactly once per snapshot, strictly in snapshot
// order i = First..T-1 (Options.First, zero by default: a caller that
// reads only a tail of the sequence names its start, and the clusters
// that end before it are never decomposed — they are independent of
// the ones that are), for every worker count: out-of-order completions
// are buffered in a min-heap (at most one pending emission per worker,
// so memory stays bounded) and released in order by a single emitter
// goroutine. Callbacks therefore never run concurrently with each
// other, but with Workers > 1 they run on the emitter's goroutine, not
// the caller's. A worker that has emitted snapshot i does not touch
// its factors again until the callback returns, so the solver passed
// to the callback is safe to use for the duration of the call — and
// only for the duration of the call, exactly as in the sequential
// path.
//
// # Cancellation
//
// Options.Context threads cancellation through the pool: workers
// observe it between per-snapshot steps, the emitter stops firing
// callbacks, and Run/RunQC return the context's error. The first
// factorization error likewise cancels all in-flight cluster work.
//
// # Phase times
//
// The t_c/t_M/t_d/t_B breakdown is accumulated per worker and summed,
// so with Workers > 1 it reports aggregate CPU time across the pool;
// Result.Wall remains wall-clock. Sequential runs (Workers == 1) keep
// the two views identical up to scheduling noise, matching the
// figures of the paper.
//
// # Streaming execution
//
// Run consumes a pre-materialized sequence; Stream (stream.go) consumes
// a live feed of edge-delta batches — the deployment the paper
// motivates. Each applied batch yields one factor version, maintained
// by the same four strategies in online form (incremental α-cluster
// tracking, evolving-union USSP for CLUDE) and hot-published by
// reference under a reader/writer lock instead of cloned: a serving
// layer reads the current factors in place via View (see
// serve.Engine.AttachLive). Batcher groups a raw event feed into
// versioned batches. Streaming a delta feed and streaming the diffs of
// its materialized snapshots produce bit-identical factors (the Replay
// reference in replay_test.go, held against both in stream_test.go);
// details in docs/STREAMING.md.
package core
