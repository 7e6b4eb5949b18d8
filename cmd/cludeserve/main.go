// Command cludeserve serves proximity-measure queries over HTTP/JSON —
// the paper's motivating deployment: cheap per-query substitutions on
// maintained LU factors.
//
// It runs in one of two modes:
//
//   - Offline (default): factor a generated evolving matrix sequence
//     with CLUDE, replayed from its first snapshot and per-step edge
//     events, pin the snapshots' factors the store keeps, and serve
//     snapshot-addressed queries.
//   - Streaming (-stream): start from the sequence's first snapshot and
//     maintain CLUDE's factors live (core.Stream maintains CLUDE and
//     nothing else; -alg accepts CLUDE only and stays so that existing
//     command lines parse). Edge updates arrive over POST
//     /v1/update, are grouped into versioned batches, and each
//     committed batch is hot-published into the serving layer without
//     copying the factors (see docs/STREAMING.md). Latest-state queries
//     answer from the live factors; -history-base k additionally keeps
//     past versions queryable by snapshot as delta-compressed history:
//     every k-th version (plus structural rebuilds) is pinned as a
//     full clone, and any version in between is materialized on demand
//     by replaying its recorded Bennett rank-1 deltas from the nearest
//     base — bit-identical factors at a fraction of the resident
//     bytes. The LRU of materialized versions holds at most 64 MiB;
//     /v1/snapshots marks each answerable version "resident" or
//     "materializable". Without it (the default) a streamed version is
//     answerable only while it is the head.
//
// Usage:
//
//	cludeserve -addr :8080 -scale small
//	cludeserve -stream -batch 64 -flush-ms 200
//	cludeserve -stream -history-base 16
//	cludeserve -stream -data-dir /var/lib/clude -fsync always -snapshot-every 32
//
// With -data-dir the streaming engine is durable: every ingest batch is
// written to a WAL before it mutates the factors (fsync per -fsync),
// background factor snapshots are taken at every -snapshot-every-th version,
// and on boot the server warm-restarts from the newest valid snapshot
// plus the WAL tail — at the exact pre-crash version, without a cold
// refactorization (see docs/PERSISTENCE.md). In both modes -data-dir
// also gives the snapshot store disk-backed eviction: cold pinned
// snapshots spill to <data-dir>/spill and reload transparently when
// queried.
//
// The HTTP surface is the versioned /v1 API of internal/api (see
// docs/API.md for the endpoint and metric reference) and nothing else:
// any other path answers 404 in the JSON error envelope. Every
// subsystem's counters are exported both as JSON (/v1/stats) and
// as Prometheus text exposition (/v1/metrics) from one shared registry,
// including per-stage latency histograms of the query pipeline
// (resolve/coalesce/admit/batch/solve) and — in streaming mode — the
// ingest (validate/log/apply/publish) and durability
// (wal_append/snapshot/compaction) pipelines, plus the Go runtime
// series (goroutines, heap, GC pauses, build info).
//
// Request-scoped tracing (docs/OBSERVABILITY.md) is on by default:
// every query gets a W3C-traceparent-compatible trace threaded through
// the whole pipeline, and tail-based retention keeps errors, queries
// slower than 20 ms, and a -trace-sample fraction of the rest in a
// -trace-buffer ring served at /v1/traces and /v1/traces/{id}.
// Slow traces additionally emit a rate-limited WARN log line carrying
// the trace id. -debug-addr starts a second, private listener with
// pprof and expvar; it never shares the public mux. -log-format=json
// switches the structured log to JSON.
//
// The query path is the admission-controlled pipeline of
// docs/SERVING.md: identical concurrent queries coalesce into one
// solve, every other admitted query is one substitution on CLUDE's
// maintained factors, and when the bounded queue (8 per worker, one
// worker per GOMAXPROCS) is full the server sheds load immediately with
// HTTP 429 and a Retry-After header instead of letting the backlog
// grow. A client that hangs up or times out cancels its own query.
//
// The server factors and serves one dataset at the paper's α = 0.95 and
// d = 0.85; the query pool, the offline factorization pool, the result
// cache (4096 entries) and the history LRU take the serving engine's
// defaults (docs/SERVING.md, "Flags").
//
// On SIGINT/SIGTERM the server stops accepting requests, drains
// in-flight queries and the ingest queue, and only then shuts the
// engines down; a second signal force-kills.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// version identifies the build in clude_build_info and the startup
// log line; override with -ldflags "-X main.version=v1.2.3".
var version = "dev"

// damping is the damping factor d of the matrices the server factors
// and the measures it answers (the paper's 0.85).
const damping = 0.85

// alpha is CLUDE's clustering threshold α, offline and streaming (the
// paper's 0.95).
const alpha = 0.95

// slowQuery is the tracer's slow threshold: every query trace at least
// this slow is retained and (rate-limitedly) logged.
const slowQuery = 20 * time.Millisecond

// options holds every command-line setting of cludeserve.
type options struct {
	addr     string
	scale    string
	maxSnaps int

	streaming bool
	algName   string
	batchSize int
	flushMS   int
	histBase  int

	dataDir   string
	fsyncMode string
	snapEvery uint64

	traceBuf    int
	traceSample float64
	debugAddr   string
	logFormat   string
}

// defineFlags registers cludeserve's flags on fs and returns the
// options they fill once fs is parsed. The solve route has no flag:
// every query is one substitution on the factors (docs/SERVING.md,
// "Solve routes"). docs/SERVING.md's flag table lists each flag, its
// default and what sets it.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.scale, "scale", "small", "dataset scale: tiny | small | medium | paper")
	fs.IntVar(&o.maxSnaps, "snapshots", 0, "snapshot store bound (0 = the -scale dataset's length: offline, the whole sequence; with -stream, the same count bounds the pinned history bases)")

	fs.BoolVar(&o.streaming, "stream", false, "streaming mode: live edge-delta ingestion via POST /v1/update")
	fs.StringVar(&o.algName, "alg", "CLUDE", "streaming maintenance strategy: CLUDE only, the one the server streams; kept so that existing command lines parse")
	fs.IntVar(&o.batchSize, "batch", 64, "streaming: events per ingest batch")
	fs.IntVar(&o.flushMS, "flush-ms", 200, "streaming: max linger before a partial batch commits (0 = size-only)")
	fs.IntVar(&o.histBase, "history-base", 0, "streaming: delta-compressed history — pin a base clone every k versions and serve the versions between them by Bennett delta replay (0 = keep no past version)")

	fs.StringVar(&o.dataDir, "data-dir", "", "durability directory: WAL + factor snapshots (streaming), snapshot spill (both modes); empty = memory only")
	fs.StringVar(&o.fsyncMode, "fsync", "always", "WAL fsync policy: always | none")
	fs.Uint64Var(&o.snapEvery, "snapshot-every", 32, "streaming: background factor snapshot every k versions")

	fs.IntVar(&o.traceBuf, "trace-buffer", 256, "retained-trace ring size; 0 disables tracing entirely")
	fs.Float64Var(&o.traceSample, "trace-sample", 0.001, "fraction of healthy, fast traces to retain anyway [0,1]")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "opt-in debug listener (pprof + expvar), kept off the public mux; empty = disabled")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text | json")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := checkAlg(o.algName); err != nil {
		fatal(err)
	}

	switch o.logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fatal(fmt.Errorf("unknown -log-format %q (want text or json)", o.logFormat))
	}

	if o.debugAddr != "" {
		// The debug listener is its own server on its own mux: pprof
		// and expvar never appear on the public address. It starts
		// before the dataset is built and factored, so the LUDEM run
		// that is the whole of set-up can be profiled on this binary.
		go func() {
			slog.Info("debug server listening", "addr", o.debugAddr)
			if err := http.ListenAndServe(o.debugAddr, debugMux()); err != nil {
				slog.Error("debug server", "err", err)
			}
		}()
	}

	tgen := time.Now()
	first, batches, T, err := dataset(gen.Scale(o.scale), o.streaming)
	if err != nil {
		fatal(err)
	}
	generated := time.Since(tgen)

	// One registry serves every subsystem: the engine, stream and store
	// re-register their live counters into it (api.New), and the stage
	// hooks below feed its histograms directly.
	reg := metrics.NewRegistry()
	metrics.RegisterRuntime(reg, version)

	// One tracer serves every pipeline; nil (with -trace-buffer 0)
	// keeps each of them on the untraced fast path.
	var tracer *trace.Tracer
	if o.traceBuf > 0 {
		tracer = trace.New(trace.Config{
			Buffer:   o.traceBuf,
			Slow:     slowQuery,
			Sample:   o.traceSample,
			OnRetain: slowQueryLogger(time.Second),
		})
	}

	scfg := engineConfig(o, T, tracer)
	eng := serve.New(scfg)

	var st *store.Store
	if o.streaming && o.dataDir != "" {
		policy, perr := store.ParseSyncPolicy(o.fsyncMode)
		if perr != nil {
			eng.Close()
			fatal(perr)
		}
		st, err = store.Open(o.dataDir, store.Options{
			Sync:          policy,
			SnapshotEvery: o.snapEvery,
			OnStage:       api.StoreStageHook(reg, tracer),
			History:       o.histBase > 0,
		})
		if err != nil {
			eng.Close()
			fatal(err)
		}
	}

	var stream *core.Stream
	var batcher *core.Batcher
	if o.streaming {
		stream, batcher, err = startStream(eng, st, reg, tracer, first, o)
	} else {
		var seq *graph.DeltaSequence
		if seq, err = graph.NewDeltaSequence(first, batches, graph.RWRMatrix(damping)); err == nil {
			err = factorOffline(eng, scfg, seq, generated)
		}
	}
	if err != nil {
		eng.Close()
		fatal(err)
	}

	handler := api.New(api.Options{
		Engine:   eng,
		Stream:   stream,
		Batcher:  batcher,
		Store:    st,
		Registry: reg,
		Tracer:   tracer,
	})
	srv := &http.Server{Addr: o.addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	slog.Info("serving", "addr", o.addr, "version", version, "tracing", tracer != nil)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			eng.Close()
			fatal(err)
		}
	case <-ctx.Done():
		// First signal: drain. stop() restores default signal handling,
		// so a second signal force-kills a wedged shutdown.
		stop()
		slog.Info("signal received; draining in-flight queries")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			slog.Error("http shutdown", "err", err)
		}
		<-errCh // ListenAndServe has returned ErrServerClosed
	}

	// HTTP is quiet; now drain the ingest queue and stop the engines.
	if batcher != nil {
		slog.Info("draining ingest queue", "pending", batcher.Pending())
		if err := batcher.Close(); err != nil {
			slog.Error("ingest drain", "err", err)
		}
	}
	if stream != nil {
		slog.Info("stream final", "stats", fmt.Sprintf("%+v", stream.Stats()))
		stream.Close()
	}
	if st != nil {
		// Final checkpoint: a clean restart replays nothing.
		if err := st.Close(); err != nil {
			slog.Error("store close", "err", err)
		}
	}
	eng.Close()
	slog.Info("shut down", "stats", fmt.Sprintf("%+v", eng.Stats()))
}

// slowQueryLogger builds the tracer's OnRetain consumer: slow-tagged
// traces become WARN log lines carrying the trace id (the /v1/traces
// join key), throttled to one line per minInterval so a latency storm
// cannot drown the log while the ring still retains every trace.
func slowQueryLogger(minInterval time.Duration) func(*trace.TraceData) {
	var last atomic.Int64
	return func(td *trace.TraceData) {
		if td.Reason != trace.ReasonSlow {
			return
		}
		now := time.Now().UnixNano()
		prev := last.Load()
		if now-prev < int64(minInterval) || !last.CompareAndSwap(prev, now) {
			return
		}
		slog.Warn("slow query",
			"trace_id", td.TraceID,
			"name", td.Name,
			"duration_us", td.DurationUS,
			"spans", len(td.Spans),
			"attrs", td.Attrs)
	}
}

// debugMux is the opt-in diagnostics surface behind -debug-addr:
// net/http/pprof and expvar, deliberately registered on a private mux
// so the public API never exposes them.
func debugMux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.Handle("/debug/vars", expvar.Handler())
	return m
}

// dataset generates the server's Wiki sequence at scale as the events
// the generator applies (gen.WikiEvents): the first snapshot and the
// per-step event batches, T-1 of them, with the sequence's length T.
// No other snapshot is ever built. Stream mode reads only the first
// snapshot, so there the generator runs day 1 alone (the same graph:
// later days draw after it) and no batch is returned; T is still the
// configured length, which -snapshots 0 resolves to.
func dataset(scale gen.Scale, streaming bool) (*graph.Graph, [][]graph.EdgeEvent, int, error) {
	d, err := gen.ConfigsFor(scale)
	if err != nil {
		return nil, nil, 0, err
	}
	T := d.Wiki.T
	if streaming {
		d.Wiki.T = 1
	}
	first, batches, err := gen.WikiEvents(d.Wiki)
	return first, batches, T, err
}

// engineConfig is the serving engine's configuration from the options
// and the length T of the -scale dataset. Stream mode reuses T: there
// -snapshots 0 bounds the pinned history bases by the offline dataset's
// length (250 at -scale medium), not by anything the stream measures.
func engineConfig(o *options, T int, tracer *trace.Tracer) serve.Config {
	scfg := serve.Config{
		MaxSnapshots: snapshotBound(o.maxSnaps, T),
		Damping:      damping,
		Tracer:       tracer,
	}
	if o.streaming {
		scfg.HistoryBase = o.histBase
	}
	if o.dataDir != "" {
		// Evicted pinned snapshots spill to disk instead of vanishing,
		// in both modes.
		scfg.SpillDir = filepath.Join(o.dataDir, "spill")
	}
	return scfg
}

// snapshotBound resolves the -snapshots flag (0 = the whole sequence).
func snapshotBound(flagVal, seqLen int) int {
	if flagVal > 0 {
		return flagVal
	}
	return seqLen
}

// pinStore is what factorOffline needs of the serving engine; the test
// puts a fingerprinting one in its place.
type pinStore interface {
	Pin(i int, s *lu.Solver)
	Snapshots() []int
}

// factorOffline is the classic mode: run CLUDE over the sequence and pin
// every snapshot the store will keep. Without a spill directory the
// store drops all but the last MaxSnapshots before the listener opens,
// so the run is told to start there (core.Options.First): the clusters
// that end before it are never decomposed, the cluster that straddles
// it opens its chain at the first kept snapshot (CLUDE's USSP holds the
// fill of every member), and only the kept snapshots are cloned and
// pinned. With a spill directory every snapshot is decomposed and
// pinned, and the evicted ones spill. Either way the run reads seq's
// steps front to back once, each in the work of what it changed, derives
// a matrix whole only where a cluster or a chain opens, and keeps only
// the step deltas its chains apply and the matrices they open at, so
// set-up holds no whole sequence of graphs or matrices. The run's pool
// is GOMAXPROCS wide. generated is how long the dataset took to
// generate: the first log line reports it, so that boot set-up splits
// into generate_ms and the "pinned snapshots" elapsed.
func factorOffline(eng pinStore, scfg serve.Config, seq graph.Sequence, generated time.Duration) error {
	T := seq.Len()
	slog.Info("factoring snapshots", "count", T, "n", seq.N(), "alg", "CLUDE", "alpha", alpha, "generate_ms", generated.Milliseconds())
	t0 := time.Now()
	first := 0
	if scfg.SpillDir == "" {
		first = max(0, T-scfg.MaxSnapshots)
	}
	// What each retained clone owns, and the index structure it shares
	// with the rest of its cluster (counted once per cluster below).
	owned, shared := make([]int64, T), make([]int64, T)
	res, err := core.Run(seq, core.CLUDE, core.Options{
		Alpha: alpha,
		First: first,
		OnFactors: func(i int, s *lu.Solver) {
			// The run updates s in place for the next snapshot; the store
			// keeps a clone (values only: a cluster shares its structure).
			s = s.Clone()
			owned[i], shared[i] = lu.MemBytes(s.F)
			eng.Pin(i, s)
		},
	})
	if err != nil {
		return err
	}
	pinned := eng.Snapshots()
	var retained int64
	lastCluster := -1
	for _, i := range pinned {
		retained += owned[i]
		if c := cluster.Covering(res.Clusters, i); c != lastCluster {
			retained += shared[i]
			lastCluster = c
		}
	}
	// clusters is what the planner made of the whole sequence; the
	// decomposed_* pair is what the phase times were spent on: CLUDE's
	// chains open at First, opened_at, and at every later cluster start.
	decomposed := len(res.Clusters) - cluster.Covering(res.Clusters, first)
	tm := res.Times
	slog.Info("pinned snapshots", "count", len(pinned), "elapsed", time.Since(t0).Round(time.Millisecond),
		"clusters", len(res.Clusters), "decomposed_clusters", decomposed, "decomposed_snapshots", T-first, "opened_at", first,
		"cluster_ms", tm.Clustering.Milliseconds(), "order_ms", tm.Ordering.Milliseconds(),
		"lu_ms", tm.FullLU.Milliseconds(), "bennett_ms", tm.Bennett.Milliseconds(), "retained_mb", retained>>20)
	return nil
}

// startStream is the live mode: seed a streaming engine with the first
// snapshot (or, with a durability store, recover the pre-crash state
// from its newest snapshot plus the WAL tail), attach it as the serve
// layer's live source, and return the ingest batcher POST /v1/update
// feeds. A fatal dataset mismatch aside, a recovered boot serves the
// exact factors the crashed process last published.
func startStream(eng *serve.Engine, st *store.Store, reg *metrics.Registry, tracer *trace.Tracer, first *graph.Graph, o *options) (*core.Stream, *core.Batcher, error) {
	cfg := core.StreamConfig{
		Alpha:   alpha,
		Initial: first,
		Derive:  graph.RWRMatrix(damping),
		OnBatch: api.IngestHook(reg, tracer),
	}
	if o.histBase > 0 {
		// Delta-compressed history: bases pin every histBase versions,
		// everything between is materialized on demand by replaying the
		// recorded Bennett deltas.
		if st != nil {
			// Seed BEFORE OpenStream: WAL replay re-fires OnPublish, and
			// those records must land on top of the persisted window
			// rather than reset it.
			eng.SeedHistory(st.LoadHistory())
			// The sidecar trims in step with the engine's retention: when
			// the oldest materializable version advances, the segments
			// wholly below it are dropped at the next snapshot cycle.
			eng.OnHistoryTrim(st.TrimHistory)
		}
		cfg.OnPublish = eng.HistoryHook()
	}
	t0 := time.Now()
	var stream *core.Stream
	var err error
	if st != nil {
		var info store.RecoveryInfo
		stream, info, err = st.OpenStream(cfg)
		if err != nil {
			return nil, nil, err
		}
		if info.Recovered {
			slog.Info("warm restart",
				"snapshot_version", info.SnapshotVersion,
				"replayed_batches", info.ReplayedBatches,
				"version", info.Version,
				"elapsed", time.Since(t0).Round(time.Millisecond))
		} else {
			slog.Info("cold start with durability (initial snapshot written)", "dir", st.Dir())
		}
	} else {
		stream, err = core.NewStream(cfg)
		if err != nil {
			return nil, nil, err
		}
	}
	eng.AttachLive(stream)
	retention := "none"
	if o.histBase > 0 {
		retention = fmt.Sprintf("history base every %d", o.histBase)
	}
	slog.Info("streaming",
		"alg", "CLUDE", "n", stream.N(),
		"boot", time.Since(t0).Round(time.Millisecond),
		"batch", o.batchSize, "linger_ms", o.flushMS, "retention", retention)
	return stream, stream.NewBatcher(o.batchSize, time.Duration(o.flushMS)*time.Millisecond), nil
}

// checkAlg validates -alg. The server's stream is CLUDE: its factors
// are the only ones it answers from and checkpoints, so any other
// strategy is refused rather than served.
func checkAlg(name string) error {
	if !strings.EqualFold(name, string(core.CLUDE)) {
		return fmt.Errorf("-alg %q: the server's stream is CLUDE, the only strategy -alg accepts", name)
	}
	return nil
}

// fatal matches cludebench's exit convention.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cludeserve:", err)
	os.Exit(1)
}
