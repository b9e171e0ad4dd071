package restapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rheem/internal/cluster"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// The fleet observability plane: per-peer facts are scraped concurrently
// (bounded by ScrapeTimeout per peer) and merged into one answer, so any
// peer can describe the whole fleet. Dead peers degrade the answer, never
// fail it: metrics merge what is reachable and name the rest, and trace
// stitching falls back to the local tree with a stitch_error annotation.

// scrapeTimeout bounds one per-peer fetch.
func (s *Server) scrapeTimeout() time.Duration {
	if s.ScrapeTimeout > 0 {
		return s.ScrapeTimeout
	}
	if s.Cluster != nil && s.Cluster.FetchTimeout() > 0 {
		return s.Cluster.FetchTimeout()
	}
	return 2 * time.Second
}

// fetchPeerJSON GETs a peer endpoint and decodes its JSON payload.
func (s *Server) fetchPeerJSON(ctx context.Context, addr, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, s.scrapeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := proxyClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// handleInternalTrace serves a job's native span tree to a peer that is
// stitching a distributed trace. Unknown or evicted ids 404, which the
// origin treats as "render the local tree".
func (s *Server) handleInternalTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.Traces.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no trace for job %s (unknown or evicted)", id)
		return
	}
	writeJSON(w, tr.Snapshot())
}

// stitchRemote grafts remote execution subtrees into a snapshot: every
// span carrying remote_job + peer attrs (the proxy spans written by
// maybeProxy) gets the serving peer's tree fetched and attached beneath
// it, each grafted span tagged with a peer attr. Failures leave the local
// tree intact with a stitch_error annotation on the proxy span.
func (s *Server) stitchRemote(ctx context.Context, snap *trace.SpanJSON) {
	if s.Cluster == nil || snap == nil {
		return
	}
	for _, sp := range snap.FindWithAttr("remote_job") {
		peer, _ := sp.Attr("peer")
		remoteID, _ := sp.Attr("remote_job")
		if peer == "" || remoteID == "" {
			continue
		}
		var remote trace.SpanJSON
		if err := s.fetchPeerJSON(ctx, peer, "/v1/internal/trace/"+remoteID, &remote); err != nil {
			sp.Attrs = append(sp.Attrs, trace.Attr{Key: "stitch_error", Value: err.Error()})
			s.Log.Debug("trace stitch failed", "peer", peer, "job", remoteID, "error", err)
			continue
		}
		snap.Graft(sp.ID, &remote, peer)
	}
}

// ClusterMetricsResponse is the ?format=json payload of
// GET /v1/cluster/metrics.
type ClusterMetricsResponse struct {
	Peers       []string                   `json:"peers"`
	Unreachable []string                   `json:"unreachable,omitempty"`
	Families    []telemetry.FamilySnapshot `json:"families"`
}

// scrapePeers snapshots the local registry and scrapes every alive remote
// peer concurrently, one timeout each.
func (s *Server) scrapePeers(ctx context.Context) (snaps map[string]*telemetry.RegistrySnapshot, unreachable []string) {
	snaps = map[string]*telemetry.RegistrySnapshot{s.Cluster.Self(): s.Ctx.Metrics.Snapshot()}
	remotes := s.Cluster.AliveRemotes()
	type scrape struct {
		addr string
		snap *telemetry.RegistrySnapshot
		err  error
	}
	ch := make(chan scrape, len(remotes))
	for _, addr := range remotes {
		go func(addr string) {
			var snap telemetry.RegistrySnapshot
			err := s.fetchPeerJSON(ctx, addr, "/v1/metrics?format=json", &snap)
			ch <- scrape{addr: addr, snap: &snap, err: err}
		}(addr)
	}
	for range remotes {
		sc := <-ch
		if sc.err != nil {
			unreachable = append(unreachable, sc.addr)
			s.Log.Warn("peer metrics scrape failed", "peer", sc.addr, "error", sc.err)
			continue
		}
		snaps[sc.addr] = sc.snap
	}
	sort.Strings(unreachable)
	return snaps, unreachable
}

// handleClusterMetrics merges the fleet's registries into one exposition:
// counters and histograms summed across peers, gauges per-peer with a peer
// label (see telemetry.MergeSnapshots). Unreachable peers are reported in
// the X-Rheem-Scrape-Errors header (prom) or the unreachable field (json).
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	snaps, unreachable := s.scrapePeers(r.Context())
	merged := telemetry.MergeSnapshots(snaps)
	switch format := r.URL.Query().Get("format"); format {
	case "", "prom":
		if len(unreachable) > 0 {
			w.Header().Set("X-Rheem-Scrape-Errors", strings.Join(unreachable, ","))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = merged.WriteProm(w)
	case "json":
		peers := make([]string, 0, len(snaps))
		for addr := range snaps {
			peers = append(peers, addr)
		}
		sort.Strings(peers)
		writeJSON(w, ClusterMetricsResponse{Peers: peers, Unreachable: unreachable, Families: merged.Families})
	default:
		httpError(w, http.StatusBadRequest, "unknown metrics format %q (want prom or json)", format)
	}
}

// PeerOverview is one peer's row in GET /v1/cluster/overview.
type PeerOverview struct {
	Addr     string    `json:"addr"`
	Self     bool      `json:"self,omitempty"`
	State    string    `json:"state"`
	LastSeen time.Time `json:"last_seen"`
	// Error reports a failed scrape of an alive peer; its gauge fields are
	// then zero.
	Error         string  `json:"error,omitempty"`
	Role          string  `json:"role,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds,omitempty"`

	QueueDepth     float64 `json:"queue_depth"`
	JobsInFlight   float64 `json:"jobs_in_flight"`
	CacheBytes     float64 `json:"cache_bytes"`
	CacheEntries   float64 `json:"cache_entries"`
	Goroutines     float64 `json:"goroutines"`
	HeapAllocBytes float64 `json:"heap_alloc_bytes"`
}

func (po *PeerOverview) fill(snap *telemetry.RegistrySnapshot) {
	po.QueueDepth, _ = snap.GaugeValue("rheem_jobs_queue_depth")
	po.JobsInFlight, _ = snap.GaugeValue("rheem_jobs_in_flight")
	po.CacheBytes, _ = snap.GaugeValue("rheem_cache_bytes")
	po.CacheEntries, _ = snap.GaugeValue("rheem_cache_entries")
	po.Goroutines, _ = snap.GaugeValue("rheem_go_goroutines")
	po.HeapAllocBytes, _ = snap.GaugeValue("rheem_go_heap_alloc_bytes")
}

// ClusterOverviewResponse is the GET /v1/cluster/overview payload.
type ClusterOverviewResponse struct {
	Self  string         `json:"self"`
	Peers []PeerOverview `json:"peers"`
}

// handleClusterOverview returns one JSON snapshot of per-peer health:
// membership state plus each alive peer's queue depth, cache, and Go
// runtime gauges (scraped concurrently; suspect/dead peers keep their
// membership row with zeroed gauges).
func (s *Server) handleClusterOverview(w http.ResponseWriter, r *http.Request) {
	members := s.Cluster.Members()
	entries := make([]PeerOverview, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		entries[i] = PeerOverview{Addr: m.Addr, State: m.State, LastSeen: m.LastSeen}
		if m.Addr == s.Cluster.Self() {
			entries[i].Self = true
			entries[i].Role = s.role()
			entries[i].UptimeSeconds = time.Since(s.started).Seconds()
			entries[i].fill(s.Ctx.Metrics.Snapshot())
			continue
		}
		if m.State != cluster.StateAlive {
			continue
		}
		wg.Add(1)
		go func(e *PeerOverview, addr string) {
			defer wg.Done()
			var snap telemetry.RegistrySnapshot
			if err := s.fetchPeerJSON(r.Context(), addr, "/v1/metrics?format=json", &snap); err != nil {
				e.Error = err.Error()
				return
			}
			e.fill(&snap)
			var h HealthResponse
			if err := s.fetchPeerJSON(r.Context(), addr, "/v1/health", &h); err == nil {
				e.Role = h.Role
				e.UptimeSeconds = h.UptimeSeconds
			}
		}(&entries[i], m.Addr)
	}
	wg.Wait()
	writeJSON(w, ClusterOverviewResponse{Self: s.Cluster.Self(), Peers: entries})
}
