// Package cluster makes a set of rheem-server processes behave like one
// system. It has three layers:
//
//   - membership: every peer is configured with the advertise addresses of
//     the rest of the fleet and exchanges lightweight HTTP heartbeats with
//     them. A peer that answers (or is heard from) is alive; one silent past
//     SuspectAfter is suspect; past DeadAfter it is dead. Contact at any
//     point revives it, so restarts rejoin without ceremony. Heartbeats
//     carry the result cache's per-source version table, gossiped in both
//     directions: a DELETE /v1/cache?source= on any peer converges
//     fleet-wide within a heartbeat round-trip per hop.
//
//   - a rendezvous (highest-random-weight) ring over canonical plan
//     fingerprints (ring.go): every fingerprint has exactly one owner among
//     the currently-alive members, ownership is agreed upon by all peers
//     with the same alive-set, and membership churn only remaps the keys
//     the departed/arrived peer owned.
//
//   - a remote tier for the result cache (remote.go): a local miss probes
//     the fingerprint's owner over internal HTTP endpoints that stream
//     entries in the binary framed codec, and freshly computed results are
//     written through to their owner. internal/rescache stays unaware of
//     HTTP — it sees this package through the rescache.RemoteTier interface.
//
// The internal endpoints are unauthenticated and meant for a trusted
// network segment, like the rest of the API surface.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"rheem/internal/rescache"
	"rheem/internal/telemetry"
)

// Options configure a Node.
type Options struct {
	// Advertise is the host:port other peers reach this server at. Required.
	Advertise string
	// Peers are the advertise addresses of the rest of the fleet. The list
	// may include Advertise (filtered) and need not be exhaustive: peers
	// heard from via heartbeat are admitted dynamically.
	Peers []string
	// HeartbeatInterval is the gossip period (default 1s).
	HeartbeatInterval time.Duration
	// SuspectAfter demotes a silent peer to suspect — and out of the ring —
	// after this long without contact (default 3× the interval).
	SuspectAfter time.Duration
	// DeadAfter marks a silent peer dead (default 10× the interval).
	DeadAfter time.Duration
	// Cache is the local result cache the remote tier serves from and
	// gossip invalidates into. Nil runs membership and routing only.
	Cache *rescache.Cache
	// Metrics receives rheem_cluster_* counters and gauges (nil-safe).
	Metrics *telemetry.Registry
	// Log receives membership transitions and transport failures; nil
	// disables logging.
	Log *slog.Logger

	now func() time.Time
}

// fetchTimeout bounds one remote cache fetch, write-through, or heartbeat
// round-trip; a node keeps the value it was created with.
var fetchTimeout = 2 * time.Second

// offLog stands in for a nil Options.Log: its handler is enabled at no
// level, so a disabled call returns before it formats anything.
var offLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// Peer states.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// PeerStatus is one peer's membership view, as reported by Members and the
// cluster status endpoint.
type PeerStatus struct {
	Addr       string    `json:"addr"`
	State      string    `json:"state"`
	LastSeen   time.Time `json:"last_seen"`
	Heartbeats int64     `json:"heartbeats"`
	Failures   int64     `json:"failures"`
}

type peer struct {
	addr       string
	lastSeen   time.Time // last successful contact, either direction
	heartbeats int64
	failures   int64
	probing    bool // an in-flight heartbeat; slow peers are not re-probed
}

// Node is this process's cluster membership. Create with New, wire its
// handlers into the HTTP mux (restapi does this), attach it to the cache
// via rescache.(*Cache).SetRemote, then Start the heartbeat loop.
type Node struct {
	opts         Options
	client       *http.Client
	log          *slog.Logger
	fetchTimeout time.Duration

	mu    sync.Mutex
	peers map[string]*peer

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mHeartbeatsSent, mHeartbeatFailures, mHeartbeatsRecv *telemetry.Counter
	mRemoteProbes, mRemoteHits, mRemoteMisses            *telemetry.Counter
	mRemoteErrors                                        *telemetry.Counter
	mServeHits, mServeMisses                             *telemetry.Counter
	mWritethroughs, mWritethroughFailures                *telemetry.Counter
	mGossipInvalidations                                 *telemetry.Counter
	gPeers, gPeersAlive                                  *telemetry.Gauge
}

// New creates a Node. The heartbeat loop starts with Start.
func New(opts Options) (*Node, error) {
	if opts.Advertise == "" {
		return nil, fmt.Errorf("cluster: Advertise is required")
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = time.Second
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 3 * opts.HeartbeatInterval
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 10 * opts.HeartbeatInterval
	}
	if opts.Log == nil {
		opts.Log = offLog
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	n := &Node{
		opts:         opts,
		client:       &http.Client{Timeout: fetchTimeout},
		log:          opts.Log,
		fetchTimeout: fetchTimeout,
		peers:        map[string]*peer{},
		stop:         make(chan struct{}),
	}
	now := opts.now()
	for _, addr := range opts.Peers {
		if addr == "" || addr == opts.Advertise {
			continue
		}
		// A configured peer starts with a full grace window: it is ring
		// material immediately and decays if it never answers.
		n.peers[addr] = &peer{addr: addr, lastSeen: now}
	}
	m := opts.Metrics
	m.Help("rheem_cluster_peers", "Known fleet peers (configured or heard from), excluding self.")
	m.Help("rheem_cluster_peers_alive", "Peers currently alive (ring members besides self).")
	m.Help("rheem_cluster_heartbeats_sent_total", "Heartbeats sent to peers.")
	m.Help("rheem_cluster_heartbeat_failures_total", "Heartbeats that failed (transport or non-200).")
	m.Help("rheem_cluster_heartbeats_received_total", "Heartbeats received from peers.")
	m.Help("rheem_cluster_remote_probes_total", "Local cache misses probed against their ring owner.")
	m.Help("rheem_cluster_remote_hits_total", "Remote probes served from a peer's cache.")
	m.Help("rheem_cluster_remote_misses_total", "Remote probes the owner missed on.")
	m.Help("rheem_cluster_remote_errors_total", "Remote probes that failed in transport or decode.")
	m.Help("rheem_cluster_serve_hits_total", "Internal cache fetches this peer served with an entry.")
	m.Help("rheem_cluster_serve_misses_total", "Internal cache fetches this peer missed on.")
	m.Help("rheem_cluster_writethroughs_total", "Results written through to their ring owner.")
	m.Help("rheem_cluster_writethrough_failures_total", "Write-throughs that failed.")
	m.Help("rheem_cluster_gossip_invalidations_total", "Source versions advanced by heartbeat gossip.")
	n.mHeartbeatsSent = m.Counter("rheem_cluster_heartbeats_sent_total")
	n.mHeartbeatFailures = m.Counter("rheem_cluster_heartbeat_failures_total")
	n.mHeartbeatsRecv = m.Counter("rheem_cluster_heartbeats_received_total")
	n.mRemoteProbes = m.Counter("rheem_cluster_remote_probes_total")
	n.mRemoteHits = m.Counter("rheem_cluster_remote_hits_total")
	n.mRemoteMisses = m.Counter("rheem_cluster_remote_misses_total")
	n.mRemoteErrors = m.Counter("rheem_cluster_remote_errors_total")
	n.mServeHits = m.Counter("rheem_cluster_serve_hits_total")
	n.mServeMisses = m.Counter("rheem_cluster_serve_misses_total")
	n.mWritethroughs = m.Counter("rheem_cluster_writethroughs_total")
	n.mWritethroughFailures = m.Counter("rheem_cluster_writethrough_failures_total")
	n.mGossipInvalidations = m.Counter("rheem_cluster_gossip_invalidations_total")
	n.gPeers = m.Gauge("rheem_cluster_peers")
	n.gPeersAlive = m.Gauge("rheem_cluster_peers_alive")
	n.publishGaugesLocked(now)
	return n, nil
}

// Self returns this node's advertise address.
func (n *Node) Self() string { return n.opts.Advertise }

// Start launches the heartbeat loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.loop()
}

// Stop ends the heartbeat loop and waits for in-flight probes.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) loop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opts.HeartbeatInterval)
	defer ticker.Stop()
	n.tick()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.tick()
		}
	}
}

// tick heartbeats every known peer that is not already being probed. Dead
// peers are probed too — that is the rejoin path.
func (n *Node) tick() {
	n.mu.Lock()
	var targets []string
	for addr, p := range n.peers {
		if !p.probing {
			p.probing = true
			targets = append(targets, addr)
		}
	}
	n.publishGaugesLocked(n.opts.now())
	n.mu.Unlock()
	for _, addr := range targets {
		n.wg.Add(1)
		go func(addr string) {
			defer n.wg.Done()
			n.heartbeat(addr)
			n.mu.Lock()
			if p := n.peers[addr]; p != nil {
				p.probing = false
			}
			n.mu.Unlock()
		}(addr)
	}
}

// heartbeatMsg is the gossip payload, carried both in requests and replies.
type heartbeatMsg struct {
	From     string            `json:"from"`
	Versions map[string]uint64 `json:"versions,omitempty"`
}

// heartbeat sends one heartbeat to addr and merges the reply.
func (n *Node) heartbeat(addr string) {
	n.mHeartbeatsSent.Inc()
	body, err := json.Marshal(heartbeatMsg{From: n.opts.Advertise, Versions: n.cacheVersions()})
	if err != nil {
		n.heartbeatFailed(addr, err)
		return
	}
	resp, err := n.client.Post("http://"+addr+"/v1/internal/cluster/heartbeat",
		"application/json", bytes.NewReader(body))
	if err != nil {
		n.heartbeatFailed(addr, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.heartbeatFailed(addr, fmt.Errorf("status %d", resp.StatusCode))
		return
	}
	var reply heartbeatMsg
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		n.heartbeatFailed(addr, err)
		return
	}
	n.markSeen(addr)
	n.mergeVersions(reply.Versions)
}

func (n *Node) heartbeatFailed(addr string, err error) {
	n.mHeartbeatFailures.Inc()
	n.mu.Lock()
	var failures int64
	if p := n.peers[addr]; p != nil {
		p.failures++
		failures = p.failures
	}
	n.mu.Unlock()
	if failures == 1 || failures%16 == 0 { // first failure, then sampled
		n.log.Debug("heartbeat failed", "peer", addr, "failures", failures, "error", err)
	}
}

// markSeen records successful contact with addr (either direction),
// admitting previously unknown peers.
func (n *Node) markSeen(addr string) {
	if addr == "" || addr == n.opts.Advertise {
		return
	}
	now := n.opts.now()
	n.mu.Lock()
	p := n.peers[addr]
	if p == nil {
		p = &peer{addr: addr}
		n.peers[addr] = p
		n.log.Info("peer joined", "peer", addr)
	}
	wasDead := n.stateAt(p, now) != StateAlive && p.heartbeats > 0
	p.lastSeen = now
	p.heartbeats++
	n.publishGaugesLocked(now)
	n.mu.Unlock()
	if wasDead {
		n.log.Info("peer rejoined", "peer", addr)
	}
}

// mergeVersions folds a peer's source-version table into the local cache:
// any source the peer has seen a newer invalidation for is advanced (and
// its entries dropped) here too.
func (n *Node) mergeVersions(versions map[string]uint64) {
	if n.opts.Cache == nil {
		return
	}
	for name, v := range versions {
		if dropped := n.opts.Cache.AdvanceSource(name, v); dropped >= 0 {
			n.mGossipInvalidations.Inc()
			n.log.Info("gossip invalidation", "source", name, "version", v, "dropped", dropped)
		}
	}
}

func (n *Node) cacheVersions() map[string]uint64 {
	if n.opts.Cache == nil {
		return nil
	}
	return n.opts.Cache.Versions()
}

// stateAt derives a peer's state from its last contact. Called with n.mu
// held (reads only peer fields).
func (n *Node) stateAt(p *peer, now time.Time) string {
	silent := now.Sub(p.lastSeen)
	switch {
	case silent < n.opts.SuspectAfter:
		return StateAlive
	case silent < n.opts.DeadAfter:
		return StateSuspect
	default:
		return StateDead
	}
}

func (n *Node) publishGaugesLocked(now time.Time) {
	alive := 0
	for _, p := range n.peers {
		if n.stateAt(p, now) == StateAlive {
			alive++
		}
	}
	n.gPeers.Set(float64(len(n.peers)))
	n.gPeersAlive.Set(float64(alive))
}

// Members reports the fleet as this node sees it: self first (always
// alive), then the peers sorted by address.
func (n *Node) Members() []PeerStatus {
	now := n.opts.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := []PeerStatus{{Addr: n.opts.Advertise, State: StateAlive, LastSeen: now}}
	for _, p := range n.peers {
		out = append(out, PeerStatus{
			Addr: p.addr, State: n.stateAt(p, now), LastSeen: p.lastSeen,
			Heartbeats: p.heartbeats, Failures: p.failures,
		})
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[i+1].Addr < out[j+1].Addr })
	return out
}

// AliveRemotes lists the alive peers besides this one — the scrape set for
// fleet-wide aggregation endpoints.
func (n *Node) AliveRemotes() []string {
	var out []string
	for _, addr := range n.aliveAddrs() {
		if addr != n.opts.Advertise {
			out = append(out, addr)
		}
	}
	return out
}

// FetchTimeout reports the per-peer timeout of internal fetches;
// aggregation scrapes reuse it so one slow peer cannot stall a fleet-wide
// answer.
func (n *Node) FetchTimeout() time.Duration { return n.fetchTimeout }

// aliveAddrs is the ring membership: self plus every alive peer.
func (n *Node) aliveAddrs() []string {
	now := n.opts.now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := []string{n.opts.Advertise}
	for _, p := range n.peers {
		if n.stateAt(p, now) == StateAlive {
			out = append(out, p.addr)
		}
	}
	return out
}

// HandleHeartbeat is the receiving side of the gossip exchange: it marks
// the sender alive, merges its version table, and replies with ours — so
// invalidations converge in both directions on every exchange.
func (n *Node) HandleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg heartbeatMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, "bad heartbeat: "+err.Error(), http.StatusBadRequest)
		return
	}
	n.mHeartbeatsRecv.Inc()
	n.markSeen(msg.From)
	n.mergeVersions(msg.Versions)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(heartbeatMsg{From: n.opts.Advertise, Versions: n.cacheVersions()})
}

// HandleStatus serves the cluster debug view: membership states and the
// ring size.
func (n *Node) HandleStatus(w http.ResponseWriter, r *http.Request) {
	members := n.Members()
	ring := 0
	for _, m := range members {
		if m.State == StateAlive {
			ring++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"self":         n.opts.Advertise,
		"members":      members,
		"ring_members": ring,
	})
}
