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
// Clusters are factored independently — each is one factor chain: an
// ordering, one full LU, Bennett updates, and a refactorization where
// an update fails — so every algorithm runs its clusters on a bounded
// worker pool. Options.Workers sets the pool size; the default
// (Workers == 0) is runtime.GOMAXPROCS(0), and Workers == 1 runs the
// same code with one worker. Each worker keeps its own reusable scratch
// (the LU work vector, the Bennett recurrence vectors, the per-cluster
// inverse permutation), so worker count does not change allocation
// behavior per cluster.
//
// # Callback ordering
//
// OnFactors fires exactly once per snapshot, strictly in snapshot
// order i = First..T-1 (Options.First, zero by default: a caller that
// reads only a tail of the sequence names its start, and the clusters
// that end before it are never decomposed — they are independent of
// the ones that are — while under CLUDE and CLUDE-QC the cluster that
// straddles it opens its chain at First, which the cluster union's USSP
// allows), for every worker count. Each cluster waits for its turn:
// its first callback waits until the previous cluster's worker is done
// with it, and then the cluster's own worker calls OnFactors for each
// of its snapshots. A later cluster still orders and decomposes while
// an earlier one walks; its own walk starts after its first callback.
// Callbacks therefore never run concurrently with each other, but they
// run on the pool's goroutines, not the caller's. A worker that has
// passed snapshot i to the callback does not touch its factors again
// until the callback returns, so the solver is safe to use for the
// duration of the call — and only for the duration of the call: a
// caller that keeps a snapshot clones it there.
//
// # Failure
//
// The first cluster that fails (a singular matrix its chain cannot
// decompose) stops the run: every other cluster stops at its next step,
// no further callback fires, and Run/RunQC return that cluster's error.
// The callbacks that fired are the snapshots First..j-1 for some j at
// or before the failed matrix.
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
// Run consumes a whole sequence known up front (a graph.Sequence, which
// it reads front to back: a derived EMS, or a graph.DeltaSequence
// replayed from recorded event batches); Stream (stream.go) consumes a
// live feed of edge-delta batches — the deployment the paper
// motivates. Each applied batch yields one factor version, maintained
// by CLUDE in online form (incremental α-cluster tracking, a USSP built
// from the evolving union) through the factor chain Run's clusters use
// (core.go), and hot-published by
// reference under a reader/writer lock instead of cloned: a serving
// layer reads the current factors in place via View (see
// serve.Engine.AttachLive). Batcher groups a raw event feed into
// versioned batches. Streaming a delta feed and streaming the diffs of
// its materialized snapshots produce bit-identical factors (the Replay
// reference in replay_test.go, held against both in stream_test.go);
// details in docs/STREAMING.md.
package core
