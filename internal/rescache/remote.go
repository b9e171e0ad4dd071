package rescache

import (
	"context"

	"rheem/internal/core"
	"rheem/internal/trace"
)

// The remote tier: a second cache level behind RAM, served by the peer
// fleet. The cluster layer (internal/cluster) assigns every fingerprint an
// owner peer on a rendezvous ring and implements RemoteTier over HTTP; the cache only knows that a local miss may be
// resolvable by one remote fetch, and that freshly computed results should
// be written through to their owner so any peer's later probe finds them.

// RemoteHit is a result fetched from a peer.
type RemoteHit struct {
	Quanta  []any
	CostMs  float64
	Bytes   int64
	Sources []core.SourceRef
	// Origin is the peer address the entry came from (span attribute).
	Origin string
}

// RemoteTier is implemented by the cluster layer. Both methods must be safe
// for concurrent use and honor ctx cancellation; Fetch returning ok=false
// covers owner-is-self, ring-empty, miss, and transport failure alike — the
// caller recomputes in every one of those cases.
type RemoteTier interface {
	Fetch(ctx context.Context, fp string) (RemoteHit, bool)
	Store(ctx context.Context, fp string, quanta []any, costMs float64, bytes int64, sources []core.SourceRef)
}

// SetRemote attaches the fleet tier. Call once at startup, before traffic.
func (c *Cache) SetRemote(r RemoteTier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remote = r
}

func (c *Cache) remoteTier() RemoteTier {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// fetchRemote resolves a local miss through the fleet. Concurrent fetches of
// the same fingerprint are single-flighted: the first caller does the HTTP
// round-trip (adopting the entry into the local cache on success), later
// callers wait and re-probe locally. A leader that fails returns a miss to
// its followers too — the owner is likely down, so each job recomputes
// rather than queueing more doomed round-trips.
func (c *Cache) fetchRemote(ctx context.Context, fp string, parent *trace.Span) (Hit, bool) {
	c.mu.Lock()
	remote := c.remote
	if remote == nil {
		c.mu.Unlock()
		return Hit{}, false
	}
	if f := c.fetches[fp]; f != nil {
		c.mu.Unlock()
		select {
		case <-f.done:
			return c.get(fp, true)
		case <-ctx.Done():
			return Hit{}, false
		}
	}
	f := &flight{done: make(chan struct{})}
	c.fetches[fp] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.fetches, fp)
		c.mu.Unlock()
		close(f.done)
	}()

	sp := parent.Start(trace.KindCacheRemoteProbe, "cache-remote-probe:"+shortFP(fp))
	sp.SetAttr("fingerprint", fp)
	rh, ok := remote.Fetch(ctx, fp)
	if !ok {
		sp.End()
		return Hit{}, false
	}
	hs := sp.Start(trace.KindCacheRemoteHit, "cache-remote-hit:"+shortFP(fp))
	hs.SetAttr("origin", rh.Origin)
	hs.SetInt("quanta", int64(len(rh.Quanta)))
	hs.SetInt("bytes", rh.Bytes)
	hs.End()
	sp.End()
	// Adopt the fetched entry locally so repeats on this peer stay local.
	c.Put(fp, rh.Quanta, rh.CostMs, rh.Bytes, rh.Sources)
	return Hit{Quanta: rh.Quanta, CostMs: rh.CostMs, Bytes: rh.Bytes, Remote: true}, true
}
