package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"rheem/internal/rescache"
	"rheem/internal/telemetry"
)

// --- ring -----------------------------------------------------------------

func TestRendezvousOwnerDeterministic(t *testing.T) {
	members := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	perms := [][]string{
		{members[0], members[1], members[2]},
		{members[2], members[0], members[1]},
		{members[1], members[2], members[0]},
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("fingerprint-%d", i)
		want := rendezvousOwner(key, perms[0])
		for _, p := range perms[1:] {
			if got := rendezvousOwner(key, p); got != want {
				t.Fatalf("owner of %s depends on member order: %s vs %s", key, got, want)
			}
		}
	}
}

func TestRendezvousBalanceAndMinimalDisruption(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	const keys = 4000
	owned := map[string]int{}
	owner := map[string]string{}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := rendezvousOwner(key, members)
		owned[o]++
		owner[key] = o
	}
	for _, m := range members {
		if owned[m] < keys/8 {
			t.Errorf("member %s owns %d of %d keys — degenerate balance %v", m, owned[m], keys, owned)
		}
	}
	// Removing one member must remap only the keys it owned.
	survivors := members[:3]
	gone := members[3]
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := rendezvousOwner(key, survivors)
		if owner[key] != gone && o != owner[key] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, owner[key], o)
		}
		if owner[key] == gone && o == gone {
			t.Fatalf("key %s still owned by removed member", key)
		}
	}
}

func TestOwnerSingleNode(t *testing.T) {
	n, err := New(Options{Advertise: "127.0.0.1:9999"})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Owner("anything"); got != "127.0.0.1:9999" {
		t.Errorf("single-node owner = %q, want self", got)
	}
}

// --- membership over loopback HTTP ----------------------------------------

// testPeer is a minimal fleet peer: a Node with its handlers on a real
// loopback listener, plus an optional cache.
type testPeer struct {
	node  *Node
	cache *rescache.Cache
	addr  string
	ln    net.Listener
	srv   *http.Server
}

// newTestFleet creates n peers that all know each other, with fast
// timeouts. Peers are created but not started; call start on each.
func newTestFleet(t *testing.T, n int, withCache bool) []*testPeer {
	t.Helper()
	setFetchTimeout(t, 500*time.Millisecond)
	peers := make([]*testPeer, n)
	addrs := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = &testPeer{ln: ln, addr: ln.Addr().String()}
		addrs[i] = peers[i].addr
	}
	for i, p := range peers {
		others := append(append([]string(nil), addrs[:i]...), addrs[i+1:]...)
		if withCache {
			p.cache = rescache.New(rescache.Options{MaxBytes: 1 << 20, Metrics: telemetry.NewRegistry()})
		}
		node, err := New(Options{
			Advertise:         p.addr,
			Peers:             others,
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      80 * time.Millisecond,
			DeadAfter:         300 * time.Millisecond,
			Cache:             p.cache,
			Metrics:           telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.node = node
		if p.cache != nil {
			p.cache.SetRemote(node)
		}
		t.Cleanup(p.stop)
	}
	return peers
}

func (p *testPeer) start() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/cluster/heartbeat", p.node.HandleHeartbeat)
	mux.HandleFunc("GET /v1/internal/cache/{fp}", p.node.HandleCacheGet)
	mux.HandleFunc("PUT /v1/internal/cache/{fp}", p.node.HandleCachePut)
	p.srv = &http.Server{Handler: mux}
	go p.srv.Serve(p.ln)
	p.node.Start()
}

// stop kills the peer: heartbeat loop and listener. Idempotent.
func (p *testPeer) stop() {
	p.node.Stop()
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
}

// restart re-binds the peer's address and resumes heartbeating.
func (p *testPeer) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	p.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/cluster/heartbeat", p.node.HandleHeartbeat)
	mux.HandleFunc("GET /v1/internal/cache/{fp}", p.node.HandleCacheGet)
	mux.HandleFunc("PUT /v1/internal/cache/{fp}", p.node.HandleCachePut)
	p.srv = &http.Server{Handler: mux}
	go p.srv.Serve(ln)
	// A fresh node resumes the loop (the old one was stopped for good).
	p.node = mustNode(t, p.node.opts)
	if p.cache != nil {
		p.cache.SetRemote(p.node)
	}
	p.node.Start()
}

// setFetchTimeout overrides the package's fetch timeout for the nodes one
// test creates.
func setFetchTimeout(t *testing.T, d time.Duration) {
	old := fetchTimeout
	fetchTimeout = d
	t.Cleanup(func() { fetchTimeout = old })
}

func mustNode(t *testing.T, opts Options) *Node {
	t.Helper()
	n, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func stateOf(peers []PeerStatus, addr string) string {
	for _, p := range peers {
		if p.Addr == addr {
			return p.State
		}
	}
	return "unknown"
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMembershipDeathAndRejoin(t *testing.T) {
	peers := newTestFleet(t, 3, false)
	for _, p := range peers {
		p.start()
	}
	a, b := peers[0], peers[1]

	waitFor(t, 5*time.Second, "all alive", func() bool {
		for _, m := range a.node.Members() {
			if m.State != StateAlive {
				return false
			}
		}
		return len(a.node.Members()) == 3
	})

	// Kill B: A sees it decay to suspect (leaving the ring), then dead.
	b.stop()
	waitFor(t, 5*time.Second, "B suspect on A", func() bool {
		return stateOf(a.node.Members(), b.addr) != StateAlive
	})
	waitFor(t, 5*time.Second, "B out of A's ring", func() bool {
		for _, m := range a.node.aliveAddrs() {
			if m == b.addr {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "B dead on A", func() bool {
		return stateOf(a.node.Members(), b.addr) == StateDead
	})
	// No key may be owned by a dead peer.
	for i := 0; i < 50; i++ {
		if o := a.node.Owner(fmt.Sprintf("k%d", i)); o == b.addr {
			t.Fatalf("dead peer %s still owns key k%d", b.addr, i)
		}
	}

	// Rejoin: the address comes back and membership recovers.
	b.restart(t)
	waitFor(t, 5*time.Second, "B alive on A again", func() bool {
		return stateOf(a.node.Members(), b.addr) == StateAlive
	})
}

func TestHeartbeatGossipConvergesVersions(t *testing.T) {
	peers := newTestFleet(t, 2, true)
	a, b := peers[0], peers[1]
	for _, p := range peers {
		p.start()
	}

	// Invalidate on A only; gossip must advance B's version table.
	a.cache.InvalidateSource("dfs://shared.txt")
	waitFor(t, 5*time.Second, "version gossip to B", func() bool {
		return b.cache.Versions()["dfs://shared.txt"] == 1
	})
	if got := a.cache.Versions()["dfs://shared.txt"]; got != 1 {
		t.Errorf("A version = %d, want 1", got)
	}
}

// TestMembershipChurnRace hammers the ring and membership API while a peer
// flaps, under -race: the point is that concurrent Owner/Members/heartbeat
// traffic with churn is data-race free and converges afterwards.
func TestMembershipChurnRace(t *testing.T) {
	peers := newTestFleet(t, 3, true)
	for _, p := range peers {
		p.start()
	}
	a, flapper := peers[0], peers[2]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, n := range []*Node{peers[0].node, peers[1].node} {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n.Owner(fmt.Sprintf("key-%d", i))
				n.Members()
				n.Fetch(context.Background(), fmt.Sprintf("missing-%d", i))
				i++
			}
		}(n)
	}
	for i := 0; i < 3; i++ {
		flapper.stop()
		time.Sleep(50 * time.Millisecond)
		flapper.restart(t)
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	waitFor(t, 5*time.Second, "fleet converged after churn", func() bool {
		return stateOf(a.node.Members(), flapper.addr) == StateAlive
	})
}

// TestRemoteFetchAndWritethrough exercises the transport directly: B owns a
// fingerprint, A writes through to it, then serves a local miss from B.
func TestRemoteFetchAndWritethrough(t *testing.T) {
	peers := newTestFleet(t, 2, true)
	for _, p := range peers {
		p.start()
	}
	a, b := peers[0], peers[1]

	waitFor(t, 5*time.Second, "fleet alive", func() bool {
		return stateOf(a.node.Members(), b.addr) == StateAlive &&
			stateOf(b.node.Members(), a.addr) == StateAlive
	})

	// Find a fingerprint owned by B from A's perspective.
	fp := ""
	for i := 0; i < 200; i++ {
		cand := fmt.Sprintf("fingerprint-%d", i)
		if a.node.Owner(cand) == b.addr {
			fp = cand
			break
		}
	}
	if fp == "" {
		t.Fatal("no fingerprint owned by B in 200 tries")
	}

	quanta := []any{int64(1), "two", 3.0}
	a.node.Store(context.Background(), fp, quanta, 42, 64, nil)
	if _, ok := b.cache.Get(fp); !ok {
		t.Fatal("write-through did not land on the owner")
	}

	hit, ok := a.node.Fetch(context.Background(), fp)
	if !ok {
		t.Fatal("fetch from owner missed")
	}
	if len(hit.Quanta) != 3 || hit.Quanta[0] != int64(1) || hit.Quanta[1] != "two" || hit.Quanta[2] != 3.0 {
		t.Errorf("fetched quanta = %v", hit.Quanta)
	}
	if hit.CostMs != 42 || hit.Origin != b.addr {
		t.Errorf("hit meta = cost %g origin %s", hit.CostMs, hit.Origin)
	}

	// A dead owner degrades to a miss, not an error.
	b.stop()
	if _, ok := a.node.Fetch(context.Background(), fp); ok {
		t.Error("fetch from dead owner reported a hit")
	}
}

// TestNilLogIsDisabled: a node built without a logger gets one enabled at
// no level, and two such nodes still find each other through heartbeats.
func TestNilLogIsDisabled(t *testing.T) {
	peers := newTestFleet(t, 2, false)
	for _, p := range peers {
		for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
			if p.node.log.Enabled(context.Background(), level) {
				t.Errorf("nil Log builds a logger enabled at %v", level)
			}
		}
		p.start()
	}
	waitFor(t, 5*time.Second, "both alive", func() bool {
		return stateOf(peers[0].node.Members(), peers[1].addr) == StateAlive &&
			stateOf(peers[1].node.Members(), peers[0].addr) == StateAlive
	})
}

// TestFetchTimeoutFixedAtNew: a node takes the package's fetch timeout, 2 s
// unless a test overrides it, when it is built, and reports it through
// FetchTimeout for restapi's scrape timeout.
func TestFetchTimeoutFixedAtNew(t *testing.T) {
	n := mustNode(t, Options{Advertise: "127.0.0.1:1", Metrics: telemetry.NewRegistry()})
	if got := n.FetchTimeout(); got != 2*time.Second {
		t.Errorf("default FetchTimeout = %v, want 2s", got)
	}
	if n.client.Timeout != 2*time.Second {
		t.Errorf("client timeout = %v, want 2s", n.client.Timeout)
	}

	setFetchTimeout(t, 500*time.Millisecond)
	m := mustNode(t, Options{Advertise: "127.0.0.1:2", Metrics: telemetry.NewRegistry()})
	if got := m.FetchTimeout(); got != 500*time.Millisecond || m.client.Timeout != got {
		t.Errorf("overridden node: FetchTimeout %v, client timeout %v; want 500ms", got, m.client.Timeout)
	}
	if got := n.FetchTimeout(); got != 2*time.Second {
		t.Errorf("an existing node's timeout followed the override: %v", got)
	}
}
