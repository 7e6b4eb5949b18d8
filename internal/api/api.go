// Package api is cludeserve's HTTP layer: the versioned /v1 routes, the
// JSON error envelope, HTTP-method discipline, and the wiring that
// re-registers every subsystem's counters into one metrics.Registry so
// /v1/stats and /v1/metrics are two renderings of the same state.
//
// Routes (/v1 is the only surface):
//
//	GET|POST /v1/query      proximity-measure queries (docs/API.md)
//	POST     /v1/update     edge-delta ingestion (streaming mode)
//	GET      /v1/snapshots  retained snapshot ids (+ history version states)
//	GET      /v1/stats      JSON counters of every subsystem
//	GET      /v1/metrics    Prometheus text exposition of the same
//	GET      /v1/healthz    liveness + mode + versions
//	GET      /v1/traces     retained traces (tail-based sampling ring)
//	GET      /v1/traces/{id}  one trace's full span tree
//
// Errors are always the envelope {"error":{"code":"...","message":"..."}}
// with a machine-readable code (bad_request, not_found,
// method_not_allowed, overloaded, unavailable); a wrong HTTP method is
// 405 with an Allow header listing what the route accepts, and a path
// the table does not route is 404 not_found like any other.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

// Options wires a Server. Engine is required; the rest are optional
// (nil Stream/Batcher means offline mode, nil Store means no
// durability, nil Registry means a fresh one).
type Options struct {
	Engine  *serve.Engine
	Stream  *core.Stream
	Batcher *core.Batcher
	Store   *store.Store
	// Registry receives every subsystem's metrics at New time. Callers
	// that pre-register their own collectors (the ingest/store stage
	// hooks, typically) pass the registry those live in.
	Registry *metrics.Registry
	// Tracer, when non-nil, enables GET /v1/traces and
	// /v1/traces/{id} and registers the clude_traces_* retention
	// counters. Nil keeps the routes 404 and costs nothing.
	Tracer *trace.Tracer
}

// Server is the HTTP layer. It implements http.Handler.
type Server struct {
	opt   Options
	reg   *metrics.Registry
	mux   *http.ServeMux
	start time.Time
}

// New builds the route table and registers the engine's, stream's and
// store's metrics into the registry. Call once per Server per registry
// (re-registering the same collectors panics, by design).
func New(opt Options) *Server {
	if opt.Engine == nil {
		panic("api: Options.Engine is required")
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{opt: opt, reg: reg, mux: http.NewServeMux(), start: time.Now()}
	opt.Engine.RegisterMetrics(reg)
	if opt.Stream != nil {
		registerStreamMetrics(reg, opt.Stream)
	}
	if opt.Store != nil {
		registerStoreMetrics(reg, opt.Store)
	}
	if opt.Tracer != nil {
		registerTraceMetrics(reg, opt.Tracer)
	}

	s.mux.Handle("/v1/query", methodGate(s.handleQuery, http.MethodGet, http.MethodHead, http.MethodPost))
	s.mux.Handle("/v1/update", methodGate(s.handleUpdate, http.MethodPost))
	s.mux.Handle("/v1/snapshots", methodGate(s.handleSnapshots, http.MethodGet, http.MethodHead))
	s.mux.Handle("/v1/stats", methodGate(s.handleStats, http.MethodGet, http.MethodHead))
	s.mux.Handle("/v1/metrics", methodGate(s.handleMetrics, http.MethodGet, http.MethodHead))
	s.mux.Handle("/v1/healthz", methodGate(s.handleHealthz, http.MethodGet, http.MethodHead))
	s.mux.Handle("/v1/traces", methodGate(s.handleTraces, http.MethodGet, http.MethodHead))
	s.mux.Handle("/v1/traces/{id}", methodGate(s.handleTraceByID, http.MethodGet, http.MethodHead))
	// Everything else: the envelope, not net/http's text/plain 404.
	s.mux.HandleFunc("/", s.handleUnrouted)
	return s
}

// Registry returns the registry the server exposes at /v1/metrics.
func (s *Server) Registry() *metrics.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// methodGate enforces the route's method set: anything else is 405
// with an Allow header listing what would have worked.
func methodGate(h http.HandlerFunc, methods ...string) http.Handler {
	allow := strings.Join(methods, ", ")
	allowed := make(map[string]bool, len(methods))
	for _, m := range methods {
		allowed[m] = true
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !allowed[r.Method] {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed (allow: %s)", r.Method, allow))
			return
		}
		h(w, r)
	})
}

// handleUnrouted answers a path the table does not route. A bare path
// whose /v1 twin is routed (/query, /stats, /traces/{id}, …: the
// spelling of clients older than the versioned API) is told where its
// route lives.
func (s *Server) handleUnrouted(w http.ResponseWriter, r *http.Request) {
	twin := &http.Request{Method: r.Method, Host: r.Host, URL: &url.URL{Path: "/v1" + r.URL.Path}}
	if _, pattern := s.mux.Handler(twin); strings.HasPrefix(pattern, "/v1/") {
		writeError(w, http.StatusNotFound, fmt.Errorf("no route %s: the API is versioned, use %s", r.URL.Path, twin.URL.Path))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no route %s (docs/API.md lists the /v1 routes)", r.URL.Path))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := parseQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// QueryShared: the answer is only serialized here, so the score
	// vector is read in place and a repeated hit brings its bytes along.
	resp, err := s.opt.Engine.QueryShared(r.Context(), q)
	if err != nil {
		if errors.Is(err, serve.ErrOverloaded) {
			// Shedding is instantaneous, so the client may retry as
			// soon as the current backlog drains.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, statusFor(err), err)
		return
	}
	writeResponse(w, resp)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	batcher, stream := s.opt.Batcher, s.opt.Stream
	if batcher == nil {
		writeError(w, http.StatusNotFound, errors.New("not in streaming mode (run with -stream)"))
		return
	}
	events, err := parseUpdate(r, stream.N())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := batcher.Send(events...); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	out := map[string]interface{}{"queued": len(events)}
	if r.URL.Query().Get("sync") != "" {
		v, err := batcher.Flush()
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		out["version"] = v
	} else {
		out["pending"] = batcher.Pending()
		out["version"] = stream.Version()
	}
	writeJSON(w, out)
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	out := map[string]interface{}{
		"retained": s.opt.Engine.Snapshots(),
		"latest":   s.opt.Engine.Latest(),
	}
	if s.opt.Stream != nil {
		out["live_version"] = s.opt.Stream.Version()
	}
	// With delta-compressed history every version in the log window is
	// answerable; the listing says which are factor-resident right now
	// and which would be materialized (delta replay) on first query.
	if hv := s.opt.Engine.HistoryVersions(); hv != nil {
		out["history"] = hv
	}
	writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.opt.Engine.Stats()
	out := map[string]interface{}{
		"stats":    es,
		"hit_rate": es.HitRate(),
	}
	if s.opt.Stream != nil {
		out["stream"] = s.opt.Stream.Stats()
	}
	if s.opt.Store != nil {
		out["store"] = s.opt.Store.Stats()
	}
	writeJSON(w, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = s.reg.Expose(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mode := "offline"
	out := map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"latest":         s.opt.Engine.Latest(),
	}
	if s.opt.Stream != nil {
		mode = "streaming"
		out["live_version"] = s.opt.Stream.Version()
	}
	out["mode"] = mode
	writeJSON(w, out)
}

// updateBody is the POST /v1/update payload.
type updateBody struct {
	Events []updateEvent `json:"events"`
}

type updateEvent struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Op   string `json:"op,omitempty"` // insert (default) | delete | update | + | - | ~
}

// parseUpdate decodes and fully validates an ingest batch. Validation
// must happen here, synchronously: an async (batched) update is
// acknowledged before it commits, and a malformed event reaching the
// batcher would poison the whole coalesced batch — dropping other
// clients' already-acknowledged events and surfacing the error to an
// unrelated request.
func parseUpdate(r *http.Request, n int) ([]graph.EdgeEvent, error) {
	var body updateBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	if len(body.Events) == 0 {
		return nil, errors.New("empty event list")
	}
	events := make([]graph.EdgeEvent, len(body.Events))
	for i, ev := range body.Events {
		op := graph.EdgeInsert
		if ev.Op != "" {
			var err error
			if op, err = graph.ParseEdgeOp(ev.Op); err != nil {
				return nil, err
			}
		}
		if ev.From < 0 || ev.From >= n || ev.To < 0 || ev.To >= n {
			return nil, fmt.Errorf("event %d: endpoint (%d,%d) outside [0,%d)", i, ev.From, ev.To, n)
		}
		events[i] = graph.EdgeEvent{From: ev.From, To: ev.To, Op: op}
	}
	return events, nil
}

// queryParams is the closed set of /v1/query URL parameters. Anything
// else is a client error: silently ignoring a typo ("sorce=5") would
// answer a different question than the one asked.
var queryParams = map[string]bool{
	"measure": true, "snapshot": true, "source": true,
	"sources": true, "k": true, "damping": true,
}

// parseQuery accepts either URL parameters (GET) or a JSON body (POST)
// shaped like serve.Query. Unknown or repeated parameters (and unknown
// JSON fields) are rejected with a descriptive error, which the
// handler returns as HTTP 400.
func parseQuery(r *http.Request) (serve.Query, error) {
	q := serve.Query{Snapshot: -1}
	if r.Method == http.MethodPost {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return q, fmt.Errorf("bad JSON body: %w", err)
		}
		return q, nil
	}
	v := r.URL.Query()
	for key, vals := range v {
		if !queryParams[key] {
			return q, fmt.Errorf("unknown query parameter %q", key)
		}
		if len(vals) > 1 {
			return q, fmt.Errorf("query parameter %q given %d times", key, len(vals))
		}
	}
	q.Measure = v.Get("measure")
	var err error
	if s := v.Get("snapshot"); s != "" {
		if q.Snapshot, err = strconv.Atoi(s); err != nil {
			return q, fmt.Errorf("bad snapshot %q", s)
		}
	}
	if s := v.Get("source"); s != "" {
		if q.Source, err = strconv.Atoi(s); err != nil {
			return q, fmt.Errorf("bad source %q", s)
		}
	}
	if s := v.Get("k"); s != "" {
		if q.K, err = strconv.Atoi(s); err != nil {
			return q, fmt.Errorf("bad k %q", s)
		}
	}
	if s := v.Get("sources"); s != "" {
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return q, fmt.Errorf("bad sources entry %q", part)
			}
			q.Sources = append(q.Sources, n)
		}
	}
	if s := v.Get("damping"); s != "" {
		if q.Damping, err = strconv.ParseFloat(s, 64); err != nil {
			return q, fmt.Errorf("bad damping %q", s)
		}
	}
	return q, nil
}

// statusFor maps serving-layer errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrUnknownSnapshot), errors.Is(err, serve.ErrNoSnapshots):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrClosed), errors.Is(err, core.ErrStreamClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// errorCode is the envelope's machine-readable spelling of a status.
func errorCode(status int) string {
	switch status {
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "bad_request"
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorEnvelope is the one error shape every route speaks:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{
		Error: errorBody{Code: errorCode(status), Message: err.Error()},
	})
}
