package restapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"rheem/internal/cluster"
	"rheem/internal/core"
	"rheem/internal/trace"
	"rheem/latin"
)

// Job routing. With -cluster-route, a job submission is proxied to the ring
// owner of its plan fingerprint, so repeated traffic for one plan lands on
// the peer whose cache (and single-flight table) already knows it — the
// affinity tier above the fetch-on-miss remote cache. The owner serves the
// request as its own: results, traces, and job ids live on the owner, and
// the response's X-Rheem-Served-By header tells the client where to poll.

// RoutedFromHeader marks a peer-proxied submission; its presence stops a
// second proxy hop (membership disagreement between two peers could
// otherwise bounce a request until one of them converges).
const RoutedFromHeader = "X-Rheem-Routed-From"

// ServedByHeader names the peer that actually executed a routed request.
const ServedByHeader = "X-Rheem-Served-By"

// proxyClient is deliberately timeout-free: a routed /v1/run lasts as long
// as the job, and the inbound request's context already bounds it.
var proxyClient = &http.Client{}

// routeFingerprint picks the plan's routing key: the smallest sink-subtree
// fingerprint. Empty when the plan has no fingerprintable sink (loops,
// unnameable UDFs) — such jobs always run locally.
func (s *Server) routeFingerprint(compiled *latin.Compiled) string {
	sv := func(string) uint64 { return 0 }
	if s.Ctx.Cache != nil {
		sv = s.Ctx.Cache.SourceVersion
	}
	fps := core.FingerprintPlan(compiled.Plan, core.FingerprintOptions{SourceVersion: sv})
	best := ""
	for _, sink := range compiled.Plan.Sinks() {
		if info := fps[sink]; info != nil && (best == "" || info.Hash < best) {
			best = info.Hash
		}
	}
	return best
}

// maybeProxy forwards a submission to its fingerprint's ring owner,
// reporting whether the response has been written. Requests that are
// already routed, have no routable fingerprint, or are owned by this peer
// run locally; so does anything whose proxy attempt fails — a dead owner
// costs one failed hop, never the job.
func (s *Server) maybeProxy(w http.ResponseWriter, r *http.Request, compiled *latin.Compiled, body []byte) bool {
	if s.Cluster == nil || !s.ClusterRoute || r.Header.Get(RoutedFromHeader) != "" {
		return false
	}
	fp := s.routeFingerprint(compiled)
	if fp == "" {
		return false
	}
	owner := s.Cluster.Owner(fp)
	if owner == "" || owner == s.Cluster.Self() {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RoutedFromHeader, s.Cluster.Self())
	// Async submissions get an origin-side trace: a root job span with one
	// proxy child covering the hop. The proxied request carries the proxy
	// span's context, so the owner links its own tree under it, and the
	// response's job id keys this trace locally — GET /v1/jobs/{id}/trace on
	// this peer then fetches and grafts the remote subtree (fleet.go).
	// Synchronous /v1/run responses carry no job id to key a trace on, so
	// they proxy untraced.
	var tr *trace.Tracer
	var proxySp *trace.Span
	if r.URL.Path == "/v1/jobs" {
		tr = trace.New(trace.KindJob, "job:"+compiled.Plan.Name)
		tr.Metrics = s.Ctx.Metrics
		proxySp = tr.Root().Start(trace.KindProxy, "proxy:"+owner)
		proxySp.SetAttr("peer", owner)
		trace.Inject(req.Header, proxySp)
	}
	resp, err := proxyClient.Do(req)
	if err != nil {
		s.Log.Warn("cluster route failed, serving locally", "owner", owner, "error", err)
		return false
	}
	defer resp.Body.Close()
	for key, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(key, v)
		}
	}
	w.Header().Set(ServedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	if tr != nil {
		s.relayTraced(w, resp, tr, proxySp)
	} else {
		_, _ = io.Copy(w, resp.Body)
	}
	s.mRouted.Inc()
	s.Log.Debug("routed submission", "owner", owner, "fp", fp[:12], "path", r.URL.Path)
	return true
}

// relayTraced copies a proxied submission response through while capturing
// the owner's job id, then retains the origin-side trace under that id.
// The body is read in full first — it is a SubmitResponse, not a result
// payload. Non-202 responses (e.g. a saturated owner's 429) relay without
// retaining a trace: no job exists to stitch against.
func (s *Server) relayTraced(w http.ResponseWriter, resp *http.Response, tr *trace.Tracer, proxySp *trace.Span) {
	body, err := io.ReadAll(resp.Body)
	_, _ = w.Write(body)
	proxySp.SetAttr("status", resp.Status)
	proxySp.End()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return
	}
	var sub SubmitResponse
	if json.Unmarshal(body, &sub) != nil || sub.ID == "" {
		return
	}
	proxySp.SetAttr("remote_job", sub.ID)
	root := tr.Root()
	root.SetAttr("routed", "true")
	root.SetAttr("job_id", sub.ID)
	root.End()
	s.Traces.Put(sub.ID, tr)
}

// mountCluster wires the fleet's internal endpoints into the mux.
func (s *Server) mountCluster(node *cluster.Node) {
	s.mux.HandleFunc("POST /v1/internal/cluster/heartbeat", node.HandleHeartbeat)
	s.mux.HandleFunc("GET /v1/internal/cache/{fp}", node.HandleCacheGet)
	s.mux.HandleFunc("PUT /v1/internal/cache/{fp}", node.HandleCachePut)
	s.mux.HandleFunc("GET /v1/cluster", node.HandleStatus)
	s.mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("GET /v1/cluster/overview", s.handleClusterOverview)
}
