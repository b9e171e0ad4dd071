package restapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"rheem"
	"rheem/internal/cluster"
	"rheem/internal/core"
	"rheem/internal/jobs"
	"rheem/internal/rescache"
	"rheem/internal/telemetry"
	"rheem/latin"
)

// fleetPeer is one in-process rheem-server wired the way cmd/rheem-server
// wires -advertise: its own cache, metrics registry, cluster node, and a
// real loopback listener, so routing and the remote cache tier run over
// actual HTTP.
type fleetPeer struct {
	addr    string
	srv     *Server
	node    *cluster.Node
	cache   *rescache.Cache
	metrics *telemetry.Registry
	httpSrv *http.Server
	ln      net.Listener
}

// kill takes the peer off the network for good: heartbeat loop stopped,
// listener closed. The restapi server itself drains in the test cleanup.
func (p *fleetPeer) kill() {
	p.node.Stop()
	if p.httpSrv != nil {
		p.httpSrv.Close()
		p.httpSrv = nil
	}
}

// fleetConfig selects which cluster tiers a test fleet enables.
type fleetConfig struct {
	route bool // -cluster-route: proxy submissions to the ring owner
	exec  bool // -cluster-exec: ship plan fragments to peers
}

// startFleet brings up n peers that all know each other, each holding an
// identical words.txt in its own DFS (named sources fingerprint by name and
// version, so plans fingerprint identically fleet-wide), and waits for
// membership to converge.
func startFleet(t *testing.T, n int, route bool) []*fleetPeer {
	t.Helper()
	return startFleetCfg(t, n, fleetConfig{route: route})
}

func startFleetCfg(t *testing.T, n int, cfg fleetConfig) []*fleetPeer {
	t.Helper()
	peers := make([]*fleetPeer, n)
	addrs := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = &fleetPeer{ln: ln, addr: ln.Addr().String()}
		addrs[i] = peers[i].addr
	}
	for i, p := range peers {
		others := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		p.metrics = telemetry.NewRegistry()
		p.cache = rescache.New(rescache.Options{MaxBytes: 16 << 20, Metrics: p.metrics})
		ctx, err := rheem.NewContext(rheem.Config{
			FastSimulation: true,
			Metrics:        p.metrics,
			ResultCache:    p.cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
			t.Fatal(err)
		}
		p.node, err = cluster.New(cluster.Options{
			Advertise:         p.addr,
			Peers:             others,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      300 * time.Millisecond,
			DeadAfter:         1200 * time.Millisecond,
			Cache:             p.cache,
			Metrics:           p.metrics,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.cache.SetRemote(p.node)
		p.srv = NewWithOptions(ctx, testUDFs(), Options{
			Jobs:         jobs.Options{Workers: 2, QueueDepth: 8},
			Cluster:      p.node,
			ClusterRoute: cfg.route,
			ClusterExec:  cfg.exec,
		})
		p.httpSrv = &http.Server{Handler: p.srv}
		go p.httpSrv.Serve(p.ln)
		p.node.Start()
		t.Cleanup(func() {
			p.kill()
			drainServer(t, p.srv)
			if err := ctx.Close(); err != nil {
				t.Errorf("close peer context: %v", err)
			}
		})
	}
	waitFleetCond(t, "fleet membership converged", func() bool {
		for _, p := range peers {
			members := p.node.Members()
			if len(members) != n {
				return false
			}
			for _, m := range members {
				if m.State != cluster.StateAlive {
					return false
				}
			}
		}
		return true
	})
	return peers
}

func waitFleetCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// wireReq performs one HTTP request against a live fleet peer.
func wireReq(t *testing.T, method, rawURL string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rawURL, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, rawURL, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func scriptBody(t *testing.T, script string) []byte {
	t.Helper()
	return []byte(`{"script": ` + mustJSON(t, script) + `}`)
}

// wireRunCounts runs WordCount synchronously on one peer and decodes the
// word counts from the collect sink.
func wireRunCounts(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, raw := wireReq(t, http.MethodPost, "http://"+addr+"/v1/run", scriptBody(t, wordCountScript))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run on %s: %d %s", addr, resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	return countsOf(t, rr)
}

func countsOf(t *testing.T, rr RunResponse) map[string]int64 {
	t.Helper()
	counts := map[string]int64{}
	for _, raw := range rr.Sinks["counts"] {
		q, err := core.DecodeQuantum(raw)
		if err != nil {
			t.Fatal(err)
		}
		kv := q.(core.KV)
		counts[kv.Key.(string)] = kv.Value.(int64)
	}
	return counts
}

// sinkFingerprint computes WordCount's routing key the way the server does,
// so tests can reason about ring ownership explicitly.
func sinkFingerprint(t *testing.T, p *fleetPeer) string {
	t.Helper()
	compiled, err := latin.Compile(wordCountScript, p.srv.UDFs)
	if err != nil {
		t.Fatal(err)
	}
	fp := p.srv.routeFingerprint(compiled)
	if fp == "" {
		t.Fatal("WordCount has no routable fingerprint")
	}
	return fp
}

func counterOf(p *fleetPeer, name string) float64 {
	return p.metrics.Counter(name).Value()
}

// TestClusterRemoteCacheHit is the tentpole's acceptance scenario: a plan
// computed on peer A is served from the distributed cache by a peer that
// never computed it, proved by rheem_cluster_remote_hits_total.
func TestClusterRemoteCacheHit(t *testing.T) {
	peers := startFleet(t, 3, false)
	a := peers[0]

	want := wireRunCounts(t, a.addr)
	if want["a"] != 3 || want["b"] != 1 || want["c"] != 1 {
		t.Fatalf("cold run counts = %v", want)
	}

	// The sink entry now lives on A and (via write-through) on the ring
	// owner. A peer that is neither is guaranteed a local miss and a remote
	// hit; exactly one of the other two peers can be the owner, so the
	// second submitter always exists.
	fp := sinkFingerprint(t, a)
	owner := a.node.Owner(fp)
	var second *fleetPeer
	for _, p := range peers[1:] {
		if p.addr != owner {
			second = p
			break
		}
	}
	if second == nil {
		t.Fatalf("no non-owner peer for fingerprint %s (owner %s)", fp, owner)
	}

	got := wireRunCounts(t, second.addr)
	if got["a"] != want["a"] || len(got) != len(want) {
		t.Fatalf("remote-served counts %v differ from computed %v", got, want)
	}
	if v := counterOf(second, "rheem_cluster_remote_hits_total"); v < 1 {
		t.Fatalf("rheem_cluster_remote_hits_total on %s = %g, want >= 1", second.addr, v)
	}
	// The fetched entry was adopted locally and the serving side counted it.
	if st := second.cache.Stats(false); st.Entries < 1 {
		t.Errorf("second peer adopted no entries: %+v", st)
	}
	served := 0.0
	for _, p := range peers {
		if p != second {
			served += counterOf(p, "rheem_cluster_serve_hits_total")
		}
	}
	if served < 1 {
		t.Errorf("no peer served an internal cache fetch")
	}

	// The fleet's debug and metrics surfaces reflect the cluster.
	resp, raw := wireReq(t, http.MethodGet, "http://"+second.addr+"/v1/cluster", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster: %d %s", resp.StatusCode, raw)
	}
	var status struct {
		Self        string `json:"self"`
		RingMembers int    `json:"ring_members"`
	}
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	if status.Self != second.addr || status.RingMembers != 3 {
		t.Errorf("cluster status = %s", raw)
	}
	if _, raw := wireReq(t, http.MethodGet, "http://"+second.addr+"/v1/metrics", nil); !strings.Contains(string(raw), "rheem_cluster_remote_hits_total") {
		t.Error("metrics exposition lacks rheem_cluster_remote_hits_total")
	}
}

// TestClusterOwnerDeathRecompute kills the ring owner of a cached plan:
// a submitting peer's remote probe fails, the job completes by local
// recompute, and the ring re-converges away from the dead peer.
func TestClusterOwnerDeathRecompute(t *testing.T) {
	peers := startFleet(t, 3, false)
	a := peers[0]

	want := wireRunCounts(t, a.addr)
	fp := sinkFingerprint(t, a)
	ownerAddr := a.node.Owner(fp)
	var owner, second *fleetPeer
	for _, p := range peers {
		if p.addr == ownerAddr {
			owner = p
		}
	}
	for _, p := range peers[1:] {
		if p.addr != ownerAddr {
			second = p
			break
		}
	}
	if owner == nil || second == nil {
		t.Fatalf("owner %s not in fleet, or no second submitter", ownerAddr)
	}

	// Kill the owner and submit immediately: the submitter still believes
	// the owner alive (SuspectAfter has not elapsed), probes it, fails, and
	// recomputes locally.
	owner.kill()
	got := wireRunCounts(t, second.addr)
	if got["a"] != want["a"] || len(got) != len(want) {
		t.Fatalf("counts after owner death %v differ from %v", got, want)
	}
	if v := counterOf(second, "rheem_cluster_remote_errors_total"); v < 1 {
		t.Errorf("rheem_cluster_remote_errors_total = %g, want >= 1 (probe to dead owner)", v)
	}
	if v := counterOf(second, "rheem_cluster_remote_hits_total"); v != 0 {
		t.Errorf("rheem_cluster_remote_hits_total = %g, want 0", v)
	}

	// The ring re-converges: the dead peer loses ownership of everything.
	waitFleetCond(t, "ring excludes dead owner", func() bool {
		return second.node.Owner(fp) != ownerAddr
	})
	// And jobs keep completing against the shrunken fleet.
	if got := wireRunCounts(t, second.addr); got["a"] != want["a"] {
		t.Fatalf("post-reconvergence counts = %v", got)
	}
}

// TestClusterGossipInvalidation checks fleet-wide invalidation: a DELETE
// /v1/cache?source= on one peer gossips the bumped source version to every
// peer, dropping their entries for that source.
func TestClusterGossipInvalidation(t *testing.T) {
	peers := startFleet(t, 3, false)
	a := peers[0]

	// Give every peer local entries for words.txt (the later runs adopt the
	// sink entry via the remote tier).
	for _, p := range peers {
		wireRunCounts(t, p.addr)
	}
	for _, p := range peers {
		if st := p.cache.Stats(false); st.Entries < 1 {
			t.Fatalf("peer %s holds no entries before invalidation", p.addr)
		}
	}

	resp, raw := wireReq(t, http.MethodDelete,
		"http://"+a.addr+"/v1/cache?source="+url.QueryEscape("dfs://words.txt"), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: %d %s", resp.StatusCode, raw)
	}

	// Gossip converges the version table and drops the entries fleet-wide.
	for _, p := range peers[1:] {
		p := p
		waitFleetCond(t, "gossip invalidation reached "+p.addr, func() bool {
			return p.cache.Versions()["dfs://words.txt"] == 1 && p.cache.Stats(false).Entries == 0
		})
		if v := counterOf(p, "rheem_cluster_gossip_invalidations_total"); v < 1 {
			t.Errorf("gossip invalidation counter on %s = %g", p.addr, v)
		}
	}

	// Satellite: the stats endpoint exposes the converged version table.
	resp, raw = wireReq(t, http.MethodGet, "http://"+peers[1].addr+"/v1/cache/stats?details=true", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, raw)
	}
	var st rescache.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.SourceVersions["dfs://words.txt"] != 1 {
		t.Errorf("stats source_versions = %v, want dfs://words.txt at 1", st.SourceVersions)
	}
}

// TestClusterRouting submits the same plan to all three peers with
// -cluster-route: the two non-owners proxy to the fingerprint's owner
// (X-Rheem-Served-By), and the resulting jobs are pollable there.
func TestClusterRouting(t *testing.T) {
	peers := startFleet(t, 3, true)
	fp := sinkFingerprint(t, peers[0])
	ownerAddr := peers[0].node.Owner(fp)

	routed := 0
	type submitted struct{ id, pollAddr string }
	var subs []submitted
	for _, p := range peers {
		resp, raw := wireReq(t, http.MethodPost, "http://"+p.addr+"/v1/jobs", scriptBody(t, wordCountScript))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit on %s: %d %s", p.addr, resp.StatusCode, raw)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		servedBy := resp.Header.Get(ServedByHeader)
		pollAddr := p.addr
		if servedBy != "" {
			routed++
			if servedBy != ownerAddr {
				t.Errorf("submission on %s served by %s, want owner %s", p.addr, servedBy, ownerAddr)
			}
			pollAddr = servedBy
		} else if p.addr != ownerAddr {
			t.Errorf("submission on non-owner %s was not routed", p.addr)
		}
		subs = append(subs, submitted{id: sub.ID, pollAddr: pollAddr})
	}
	if routed != 2 {
		t.Fatalf("%d submissions routed, want exactly 2 (owner %s)", routed, ownerAddr)
	}

	// Every job id lives on the peer named in the response.
	for _, sub := range subs {
		sub := sub
		waitFleetCond(t, "job "+sub.id+" succeeded on "+sub.pollAddr, func() bool {
			resp, raw := wireReq(t, http.MethodGet, "http://"+sub.pollAddr+"/v1/jobs/"+sub.id, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll %s on %s: %d %s", sub.id, sub.pollAddr, resp.StatusCode, raw)
			}
			var st JobStatusResponse
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.State == string(jobs.StateFailed) {
				t.Fatalf("job %s failed: %s", sub.id, st.Error)
			}
			return st.State == string(jobs.StateSucceeded)
		})
		resp, raw := wireReq(t, http.MethodGet, "http://"+sub.pollAddr+"/v1/jobs/"+sub.id+"/result", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: %d %s", sub.id, resp.StatusCode, raw)
		}
		var rr RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		if counts := countsOf(t, rr); counts["a"] != 3 {
			t.Errorf("routed job %s counts = %v", sub.id, counts)
		}
	}
	ownerPeer := peers[0]
	for _, p := range peers {
		if p.addr == ownerAddr {
			ownerPeer = p
		}
	}
	if v := counterOf(ownerPeer, "rheem_cluster_routed_requests_total"); v != 0 {
		t.Errorf("owner routed %g requests to itself", v)
	}
}
