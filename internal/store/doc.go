// Package store is the durability subsystem of the streaming pipeline:
// versioned binary codecs for the factor containers and graph state, a
// segment-based write-ahead log of edge-delta batches, and ARIES-style
// checkpoint + log recovery that hands the serving layer a fully warm
// solver at the exact pre-crash version.
//
// The paper's central economy is that LU factors over an evolving graph
// sequence are expensive to build and cheap to reuse; this package
// extends that economy across process lifetimes. Three layers:
//
//   - Codec (codec.go, factors.go, graphio.go, state.go): length- and
//     checksum-framed binary encodings for solvers over
//     lu.StaticFactors, graph.Graph, sparse patterns/matrices/
//     orderings, the cluster tracker, and the complete core.StreamState
//     of a CLUDE stream (INC/CINC's linked lists have no format).
//     Only primary structure is written, and a container is rebuilt
//     from exactly those arrays, so round trips are bit-identical by
//     construction; the factors' cross views are built on demand by
//     whoever writes the container later.
//
//   - Record log (wal.go): append-only CRC-framed records keyed by a
//     monotone integer, in size-rotated segments whose torn tails are
//     detected and physically discarded on open, trimmed by dropping
//     whole segments below a key. Two instances: the WAL, to which
//     every validated batch is appended — sequence-numbered, fsync
//     policy configurable — through the core.StreamConfig.LogBatch hook
//     BEFORE any in-memory state mutates, and which is truncated once a
//     retained snapshot covers it; and the history sidecar
//     (history.go), one Bennett delta record per published version,
//     trimmed to the serving layer's retention floor.
//
//   - Recovery (store.go): Store.OpenStream loads the newest snapshot
//     that passes its checksum (falling back to older ones on
//     corruption), restores the stream via core.RestoreStream, and
//     replays the WAL tail through Stream.ReplayBatch — the exact code
//     path live batches take — so the recovered factors are
//     bit-identical to an uninterrupted run at the same version.
//     Snapshots are written in the background at every version that is
//     a multiple of SnapshotEvery, plus once on Close for replay-free
//     restarts, through Files (files.go): the one durable whole-file
//     writer, name index and keep-newest rule, shared with serve's spill.
//
// See docs/PERSISTENCE.md for the on-disk layout, the format versioning
// policy, and the fsync/durability trade-offs.
package store
