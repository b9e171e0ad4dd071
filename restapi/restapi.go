// Package restapi exposes the system over HTTP — the REST interface of the
// paper's Section 5, grown into a small service layer. Clients submit
// RheemLatin scripts either synchronously (/v1/run) or as asynchronous jobs
// (/v1/jobs) managed by internal/jobs: a bounded queue with admission
// control (429 when saturated), a worker pool, per-job cancellation, and a
// TTL-evicting result store. System-wide telemetry is exposed in the
// Prometheus text format.
//
//	POST   /v1/run             {"script": "..."}  -> {"platforms": [...], "replans": n, "sinks": {...}}
//	POST   /v1/explain         {"script": "..."}  -> {"plan": "...", "execution_plan": "..."}
//	POST   /v1/jobs            {"script": "..."}  -> 202 {"id": "...", "state": "queued"}
//	GET    /v1/jobs/{id}                          -> status + timestamps (+ monitor snapshot when finished)
//	GET    /v1/jobs/{id}/result [?sink=name]      -> the run payload of a succeeded job
//	GET    /v1/jobs/{id}/trace  [?format=chrome]  -> the job's span tree (native or Chrome trace_event JSON)
//	GET    /v1/jobs/{id}/profile                  -> per-stage resource profile (observed vs. estimated cost)
//	DELETE /v1/jobs/{id}                          -> cancel a queued or running job
//	GET    /v1/cache/stats     [?details=true]    -> result-cache counters (+ per-entry details)
//	DELETE /v1/cache           [?source=name]     -> clear the cache (or invalidate one source dataset)
//	DELETE /v1/cache/{fp}                         -> drop one cached entry by fingerprint
//	GET    /v1/metrics         [?format=json]     -> Prometheus text exposition (or structured JSON)
//	GET    /v1/platforms                          -> {"platforms": [...]}
//	GET    /v1/health                             -> {"status": "ok", "uptime_seconds": ..., "role": ...}
//	GET    /v1/internal/trace/{id}                -> a job's native span tree, for peer-side trace stitching
//
// With a cluster node attached (Options.Cluster), the fleet's endpoints are
// mounted too:
//
//	GET    /v1/cluster                            -> membership states + ring size
//	GET    /v1/cluster/metrics [?format=json]     -> fleet-merged metrics (counters summed, gauges per-peer)
//	GET    /v1/cluster/overview                   -> per-peer health/queue/cache/runtime snapshot
//	POST   /v1/internal/cluster/heartbeat         -> peer gossip (membership + cache versions)
//	GET    /v1/internal/cache/{fp}                -> stream one cache entry to a peer (binary framed)
//	PUT    /v1/internal/cache/{fp}                -> accept a peer's write-through
//
// Every response carries an X-Rheem-Request-Id, echoed in the debug-level
// access log; routed submissions additionally carry X-Rheem-Served-By.
package restapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"

	"rheem"
	"rheem/internal/cluster"
	"rheem/internal/core"
	"rheem/internal/jobs"
	"rheem/internal/monitor"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
	"rheem/latin"
)

// Options configure a Server beyond its defaults.
type Options struct {
	// Jobs configure the async job manager (queue depth, workers, result
	// TTL). Jobs.Metrics defaults to the context's registry.
	Jobs jobs.Options
	// MaxBodyBytes caps request bodies (default 1 MiB); larger scripts get
	// a 413 instead of being decoded unbounded.
	MaxBodyBytes int64
	// MaxResultQuanta truncates sink payloads in responses (default 10000).
	MaxResultQuanta int
	// TraceCapacity bounds the per-job trace store (LRU, default 256).
	TraceCapacity int
	// Log receives server and job lifecycle events; nil disables logging.
	// Jobs.Log defaults to it.
	Log *slog.Logger
	// Cluster joins this server to a peer fleet: the heartbeat, internal
	// cache-transfer, and cluster-status endpoints are mounted when set.
	Cluster *cluster.Node
	// ClusterRoute proxies job submissions to their plan fingerprint's ring
	// owner for cache affinity (ignored without Cluster).
	ClusterRoute bool
	// ScrapeTimeout bounds each per-peer fetch made by the fleet aggregation
	// endpoints (/v1/cluster/metrics, /v1/cluster/overview) and by trace
	// stitching. Defaults to the cluster's fetch timeout, else 2s.
	ScrapeTimeout time.Duration
}

// offLog stands in for a nil Options.Log: its handler is enabled at no
// level, so a disabled call returns before it formats anything.
var offLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// Server wires a Context, a UDF registry, and a job manager into an
// http.Handler.
type Server struct {
	Ctx  *rheem.Context
	UDFs *latin.Registry
	Jobs *jobs.Manager
	// Traces retains each submitted job's span tree (bounded LRU).
	Traces *trace.Store
	// Log receives request/lifecycle events; never nil once constructed.
	Log *slog.Logger
	// MaxResultQuanta truncates sink payloads in responses (default 10000).
	MaxResultQuanta int
	// MaxBodyBytes caps request bodies; <= 0 falls back to 1 MiB.
	MaxBodyBytes int64
	// Cluster is this server's fleet membership (nil when single-node).
	Cluster *cluster.Node
	// ClusterRoute enables owner-affinity job routing (see cluster.go).
	ClusterRoute bool
	// ScrapeTimeout bounds per-peer fetches of the fleet endpoints.
	ScrapeTimeout time.Duration

	started time.Time
	mux     *http.ServeMux
	mRouted *telemetry.Counter
}

// New creates a server with default options.
func New(ctx *rheem.Context, udfs *latin.Registry) *Server {
	return NewWithOptions(ctx, udfs, Options{})
}

// NewWithOptions creates a server around the given context and UDF library,
// starting its job manager.
func NewWithOptions(ctx *rheem.Context, udfs *latin.Registry, opts Options) *Server {
	if opts.Jobs.Metrics == nil {
		opts.Jobs.Metrics = ctx.Metrics
	}
	if opts.Log == nil {
		opts.Log = offLog
	}
	if opts.Jobs.Log == nil {
		opts.Jobs.Log = opts.Log.With("component", "jobs")
	}
	if opts.MaxResultQuanta <= 0 {
		opts.MaxResultQuanta = 10000
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		Ctx:             ctx,
		UDFs:            udfs,
		Jobs:            jobs.New(opts.Jobs),
		Traces:          trace.NewStore(opts.TraceCapacity),
		Log:             opts.Log,
		MaxResultQuanta: opts.MaxResultQuanta,
		MaxBodyBytes:    opts.MaxBodyBytes,
		ScrapeTimeout:   opts.ScrapeTimeout,
		started:         time.Now(),
	}
	trace.RegisterMetricsHelp(ctx.Metrics)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleJobProfile)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	s.mux.HandleFunc("DELETE /v1/cache", s.handleCacheClear)
	s.mux.HandleFunc("DELETE /v1/cache/{fp}", s.handleCacheDelete)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/platforms", s.handlePlatforms)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/internal/trace/{id}", s.handleInternalTrace)
	if opts.Cluster != nil {
		s.Cluster = opts.Cluster
		s.ClusterRoute = opts.ClusterRoute
		ctx.Metrics.Help("rheem_cluster_routed_requests_total",
			"Job submissions proxied to their fingerprint's ring owner.")
		s.mRouted = ctx.Metrics.Counter("rheem_cluster_routed_requests_total")
		s.mountCluster(opts.Cluster)
	}
	return s
}

// Close drains the job manager: admission stops immediately, queued and
// running jobs get until ctx expires, and an error reports abandoned jobs.
func (s *Server) Close(ctx context.Context) error { return s.Jobs.Close(ctx) }

// RequestIDHeader carries the per-request id every response is stamped
// with; the same id keys the debug-level access log line.
const RequestIDHeader = "X-Rheem-Request-Id"

// ServeHTTP implements http.Handler: it stamps a request id on the
// response and, at debug level, emits one access-log line per request with
// method, path, status, duration, and — for proxied submissions — the peer
// that served it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := newRequestID()
	w.Header().Set(RequestIDHeader, reqID)
	if !s.Log.Enabled(r.Context(), slog.LevelDebug) {
		s.mux.ServeHTTP(w, r)
		return
	}
	rec := &statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	kv := []any{
		"request_id", reqID,
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.code(),
		"duration_ms", float64(time.Since(start)) / float64(time.Millisecond),
	}
	if by := rec.Header().Get(ServedByHeader); by != "" {
		kv = append(kv, "served_by", by)
	}
	s.Log.Debug("http request", kv...)
}

// newRequestID mints a 12-hex-digit random request id ("-" if the entropy
// source fails; ids are diagnostics, not security).
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "-"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) code() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

type scriptRequest struct {
	Script string `json:"script"`
}

// RunResponse is the /v1/run payload (and a succeeded job's result).
type RunResponse struct {
	Platforms []string                     `json:"platforms"`
	Replans   int                          `json:"replans"`
	Sinks     map[string][]json.RawMessage `json:"sinks"`
	Truncated bool                         `json:"truncated,omitempty"`
}

// ExplainResponse is the /v1/explain payload.
type ExplainResponse struct {
	Plan          string `json:"plan"`
	ExecutionPlan string `json:"execution_plan"`
}

// SubmitResponse acknowledges an async submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// JobStatusResponse is the /v1/jobs/{id} payload.
type JobStatusResponse struct {
	ID          string            `json:"id"`
	State       string            `json:"state"`
	SubmittedAt time.Time         `json:"submitted_at"`
	StartedAt   *time.Time        `json:"started_at,omitempty"`
	FinishedAt  *time.Time        `json:"finished_at,omitempty"`
	Error       string            `json:"error,omitempty"`
	Monitor     *monitor.Snapshot `json:"monitor,omitempty"`
}

// jobOutcome is the value a job's runner stores in the result store: the
// rendered response and the run record, from which the status's monitor
// summary and the profile are rendered when asked for.
type jobOutcome struct {
	resp   RunResponse
	record rheem.Record
}

// compile decodes and compiles a script request, returning the raw body
// too so cluster routing can replay it to a peer verbatim.
func (s *Server) compile(w http.ResponseWriter, r *http.Request) (*latin.Compiled, []byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return nil, nil, false
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, false
	}
	var req scriptRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, false
	}
	if req.Script == "" {
		httpError(w, http.StatusBadRequest, "empty script")
		return nil, nil, false
	}
	compiled, err := latin.Compile(req.Script, s.UDFs)
	if err != nil {
		var unknownSink *latin.UnknownSinkError
		if errors.As(err, &unknownSink) {
			// The script stores/collects a dataset it never defined — a
			// malformed request, not a server failure.
			httpError(w, http.StatusBadRequest, "compile: %v", err)
			return nil, nil, false
		}
		httpError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		return nil, nil, false
	}
	return compiled, raw, true
}

// runner builds the job body: execute the precompiled plan under the job's
// context and render the response payload.
func (s *Server) runner(compiled *latin.Compiled) jobs.Runner {
	return func(ctx context.Context) (any, error) {
		res, err := s.Ctx.ExecuteCtx(ctx, compiled.Plan)
		if err != nil {
			return nil, err
		}
		resp, err := s.renderRun(res, compiled)
		if err != nil {
			return nil, err
		}
		return &jobOutcome{resp: resp, record: res.Record()}, nil
	}
}

func (s *Server) renderRun(res *rheem.Result, compiled *latin.Compiled) (RunResponse, error) {
	resp := RunResponse{
		Platforms: res.Platforms(),
		Replans:   res.Replans(),
		Sinks:     map[string][]json.RawMessage{},
	}
	limit := s.MaxResultQuanta
	if limit <= 0 {
		limit = 10000
	}
	for name, sink := range compiled.Sinks {
		data, err := res.CollectFrom(sink)
		if err != nil {
			return resp, fmt.Errorf("collect %s: %w", name, err)
		}
		if len(data) > limit {
			data = data[:limit]
			resp.Truncated = true
		}
		encoded := make([]json.RawMessage, len(data))
		for i, q := range data {
			raw, err := core.EncodeQuantum(q)
			if err != nil {
				return resp, fmt.Errorf("encode result: %w", err)
			}
			encoded[i] = raw
		}
		resp.Sinks[name] = encoded
	}
	return resp, nil
}

// submit enqueues a traced job and retains its span tree for the trace
// endpoint. The tracer is created before submission so the queue-wait span
// covers the whole admission; evicted traces simply 404. A request arriving
// with trace-propagation headers (a routed submission) links this tree
// under the origin's span, so the origin can graft it into one distributed
// trace.
func (s *Server) submit(compiled *latin.Compiled, r *http.Request) (string, error) {
	tr := trace.New(trace.KindJob, "job:"+compiled.Plan.Name)
	tr.Metrics = s.Ctx.Metrics
	if tid, parent, ok := trace.Extract(r.Header); ok {
		tr.SetRemoteParent(tid, parent)
		if from := r.Header.Get(RoutedFromHeader); from != "" {
			tr.Root().SetAttr("routed_from", from)
		}
	}
	id, err := s.Jobs.Submit(s.runner(compiled), jobs.WithTracer(tr))
	if err != nil {
		return "", err
	}
	s.Traces.Put(id, tr)
	return id, nil
}

// handleRun is the synchronous convenience: it submits through the same
// job manager (sharing admission control and telemetry) and waits inline.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	compiled, raw, ok := s.compile(w, r)
	if !ok {
		return
	}
	if s.maybeProxy(w, r, compiled, raw) {
		return
	}
	id, err := s.submit(compiled, r)
	if err != nil {
		s.submitError(w, err)
		return
	}
	st, err := s.Jobs.Wait(r.Context(), id)
	if err != nil {
		// The client went away; stop burning workers on the abandoned run.
		_ = s.Jobs.Cancel(id)
		httpError(w, http.StatusServiceUnavailable, "wait: %v", err)
		return
	}
	switch st.State {
	case jobs.StateSucceeded:
		outcome, err := s.Jobs.Result(id)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "result: %v", err)
			return
		}
		writeJSON(w, outcome.(*jobOutcome).resp)
	case jobs.StateCancelled:
		httpError(w, http.StatusServiceUnavailable, "execution cancelled")
	default:
		httpError(w, http.StatusInternalServerError, "execute: %s", st.Err)
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	compiled, raw, ok := s.compile(w, r)
	if !ok {
		return
	}
	if s.maybeProxy(w, r, compiled, raw) {
		return
	}
	id, err := s.submit(compiled, r)
	if err != nil {
		s.submitError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(SubmitResponse{ID: id, State: string(jobs.StateQueued)})
}

func admissionStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterSeconds is the back-off hint sent with 429 admission responses.
// Queue pressure drains on job timescales, not packet timescales, so the
// hint is a flat second rather than something cleverer.
const RetryAfterSeconds = "1"

// submitError renders an admission failure. 429 responses carry a
// Retry-After header so well-behaved clients — and peer-proxied
// submissions, whose proxy copies response headers through — back off
// instead of hammering a saturated queue.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	code := admissionStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", RetryAfterSeconds)
	}
	httpError(w, code, "submit: %v", err)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Jobs.Get(id)
	if err != nil {
		httpError(w, http.StatusNotFound, "job %s: %v", id, err)
		return
	}
	resp := JobStatusResponse{
		ID:          st.ID,
		State:       string(st.State),
		SubmittedAt: st.SubmittedAt,
		Error:       st.Err,
	}
	if !st.StartedAt.IsZero() {
		t := st.StartedAt
		resp.StartedAt = &t
	}
	if !st.FinishedAt.IsZero() {
		t := st.FinishedAt
		resp.FinishedAt = &t
	}
	if st.State == jobs.StateSucceeded {
		if outcome, err := s.Jobs.Result(id); err == nil {
			snap := monitor.Summarize(outcome.(*jobOutcome).record.Entries)
			resp.Monitor = &snap
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	outcome, err := s.Jobs.Result(id)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "job %s: %v", id, err)
		return
	case errors.Is(err, jobs.ErrNotFinished):
		httpError(w, http.StatusConflict, "job %s is not finished", id)
		return
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusConflict, "job %s was cancelled", id)
		return
	default:
		httpError(w, http.StatusInternalServerError, "job %s failed: %v", id, err)
		return
	}
	resp := outcome.(*jobOutcome).resp
	if sink := r.URL.Query().Get("sink"); sink != "" {
		data, ok := resp.Sinks[sink]
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown sink %q (have: %s)", sink, strings.Join(sinkNames(resp.Sinks), ", "))
			return
		}
		resp = RunResponse{Platforms: resp.Platforms, Replans: resp.Replans, Truncated: resp.Truncated,
			Sinks: map[string][]json.RawMessage{sink: data}}
	}
	writeJSON(w, resp)
}

func sinkNames(sinks map[string][]json.RawMessage) []string {
	out := make([]string, 0, len(sinks))
	for name := range sinks {
		out = append(out, name)
	}
	return out
}

// handleJobTrace serves a job's span tree: the native nested-span JSON by
// default, or the Chrome trace_event format (loadable in chrome://tracing
// and Perfetto) with ?format=chrome. Works for in-flight jobs too — open
// spans are reported as unfinished with their duration so far. Trees of
// routed jobs are stitched first: each proxy span's remote subtree is
// fetched from the serving peer and grafted in, so one request returns the
// whole distributed tree (degrading to the local tree, annotated with
// stitch_error, when the peer is unreachable).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.Traces.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no trace for job %s (unknown or evicted)", id)
		return
	}
	snap := tr.Snapshot()
	s.stitchRemote(r.Context(), snap)
	switch format := r.URL.Query().Get("format"); format {
	case "", "native":
		writeJSON(w, snap)
	case "chrome":
		writeJSON(w, snap.ChromeTrace())
	default:
		httpError(w, http.StatusBadRequest, "unknown trace format %q (want native or chrome)", format)
	}
}

// handleJobProfile serves a succeeded job's resource profile — the
// EXPLAIN ANALYZE view pairing observed wall/CPU/alloc/bytes with the
// optimizer's estimates.
func (s *Server) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	outcome, err := s.Jobs.Result(id)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "job %s: %v", id, err)
		return
	case errors.Is(err, jobs.ErrNotFinished):
		httpError(w, http.StatusConflict, "job %s is not finished", id)
		return
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusConflict, "job %s was cancelled", id)
		return
	default:
		httpError(w, http.StatusInternalServerError, "job %s failed: %v", id, err)
		return
	}
	writeJSON(w, outcome.(*jobOutcome).record.Profile())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.Jobs.Cancel(id); {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitResponse{ID: id, State: string(jobs.StateCancelled)})
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "job %s: %v", id, err)
	case errors.Is(err, jobs.ErrAlreadyFinished):
		httpError(w, http.StatusConflict, "job %s: %v", id, err)
	default:
		httpError(w, http.StatusInternalServerError, "cancel %s: %v", id, err)
	}
}

// handleCacheStats reports the result cache's counters; ?details=true adds
// per-entry fingerprints, sizes, and hit counts (sorted by eviction
// survivorship). Contexts without a configured cache get a 404.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if s.Ctx.Cache == nil {
		httpError(w, http.StatusNotFound, "result cache is not enabled")
		return
	}
	details := r.URL.Query().Get("details") == "true"
	writeJSON(w, s.Ctx.Cache.Stats(details))
}

// handleCacheClear drops every cached entry, or — with ?source=name —
// invalidates one source dataset: its version is bumped (changing all
// future fingerprints that read it) and the entries reading it are dropped.
func (s *Server) handleCacheClear(w http.ResponseWriter, r *http.Request) {
	if s.Ctx.Cache == nil {
		httpError(w, http.StatusNotFound, "result cache is not enabled")
		return
	}
	if source := r.URL.Query().Get("source"); source != "" {
		n := s.Ctx.Cache.InvalidateSource(source)
		writeJSON(w, map[string]any{"invalidated_source": source, "dropped": n})
		return
	}
	writeJSON(w, map[string]any{"dropped": s.Ctx.Cache.Clear()})
}

func (s *Server) handleCacheDelete(w http.ResponseWriter, r *http.Request) {
	if s.Ctx.Cache == nil {
		httpError(w, http.StatusNotFound, "result cache is not enabled")
		return
	}
	fp := r.PathValue("fp")
	if !s.Ctx.Cache.Delete(fp) {
		httpError(w, http.StatusNotFound, "no cache entry %s", fp)
		return
	}
	writeJSON(w, map[string]any{"deleted": fp})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Ctx.Metrics.WriteProm(w)
	case "json":
		writeJSON(w, s.Ctx.Metrics.Snapshot())
	default:
		httpError(w, http.StatusBadRequest, "unknown metrics format %q (want prom or json)", format)
	}
}

// HealthResponse is the /v1/health payload. Role is "single" without a
// cluster, "router" when this peer proxies submissions to ring owners, and
// "peer" otherwise.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Role          string  `json:"role"`
	Advertise     string  `json:"advertise,omitempty"`
	PeersAlive    int     `json:"peers_alive,omitempty"`
}

func (s *Server) role() string {
	switch {
	case s.Cluster == nil:
		return "single"
	case s.ClusterRoute:
		return "router"
	default:
		return "peer"
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Role:          s.role(),
	}
	if s.Cluster != nil {
		resp.Advertise = s.Cluster.Self()
		resp.PeersAlive = len(s.Cluster.AliveRemotes()) + 1
	}
	writeJSON(w, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	compiled, _, ok := s.compile(w, r)
	if !ok {
		return
	}
	ep, err := s.Ctx.Optimize(compiled.Plan)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "optimize: %v", err)
		return
	}
	writeJSON(w, ExplainResponse{Plan: compiled.Plan.String(), ExecutionPlan: ep.String()})
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string][]string{"platforms": s.Ctx.Registry.Mappings.Platforms()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
