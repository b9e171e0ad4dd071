package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"rheem/internal/core"
	"rheem/internal/rescache"
	"rheem/internal/trace"
)

// The remote result-cache tier. Entries move between peers over two
// internal endpoints keyed by fingerprint:
//
//	GET /v1/internal/cache/{fp}   owner serves an entry: metadata in
//	                              X-Rheem-* headers, quanta as a binary
//	                              framed (RQB1) stream
//	PUT /v1/internal/cache/{fp}   write-through: a non-owner that computed
//	                              a result hands the owner a copy
//
// Node implements rescache.RemoteTier with the client side of both.

const (
	headerCostMs  = "X-Rheem-Cost-Ms"
	headerBytes   = "X-Rheem-Bytes"
	headerSources = "X-Rheem-Sources"

	quantaContentType = "application/x-rheem-quanta"
)

// Fetch resolves a local cache miss through the ring: if the fingerprint's
// owner is another peer, ask it. Any failure — no alive owner, transport
// error, corrupt stream, owner miss — reports ok=false and the caller
// recomputes; a dead owner therefore degrades to a cache miss, never an
// error surfaced to the job.
func (n *Node) Fetch(ctx context.Context, fp string) (rescache.RemoteHit, bool) {
	owner := n.Owner(fp)
	if owner == "" || owner == n.opts.Advertise {
		return rescache.RemoteHit{}, false
	}
	n.mRemoteProbes.Inc()
	ctx, cancel := context.WithTimeout(ctx, n.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+owner+"/v1/internal/cache/"+fp, nil)
	if err != nil {
		n.mRemoteErrors.Inc()
		return rescache.RemoteHit{}, false
	}
	// Propagate the caller's span context so the serving peer can correlate
	// this fetch with the origin job's trace.
	trace.Inject(req.Header, trace.FromContext(ctx))
	resp, err := n.client.Do(req)
	if err != nil {
		n.mRemoteErrors.Inc()
		n.log.Debug("remote fetch failed", "peer", owner, "fp", fp, "error", err)
		return rescache.RemoteHit{}, false
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		n.mRemoteMisses.Inc()
		return rescache.RemoteHit{}, false
	default:
		n.mRemoteErrors.Inc()
		return rescache.RemoteHit{}, false
	}
	hit := rescache.RemoteHit{Origin: owner}
	hit.CostMs, _ = strconv.ParseFloat(resp.Header.Get(headerCostMs), 64)
	hit.Bytes, _ = strconv.ParseInt(resp.Header.Get(headerBytes), 10, 64)
	if raw := resp.Header.Get(headerSources); raw != "" {
		if err := json.Unmarshal([]byte(raw), &hit.Sources); err != nil {
			n.mRemoteErrors.Inc()
			return rescache.RemoteHit{}, false
		}
	}
	if hit.Quanta, err = core.ReadQuantaStream(resp.Body); err != nil {
		n.mRemoteErrors.Inc()
		n.log.Debug("remote fetch decode failed", "peer", owner, "fp", fp, "error", err)
		return rescache.RemoteHit{}, false
	}
	n.mRemoteHits.Inc()
	return hit, true
}

// Store writes a computed result through to its ring owner (a no-op when
// the owner is this peer: the caller already stored locally). Failures are
// counted and dropped — the fleet loses affinity for the fingerprint, not
// correctness.
func (n *Node) Store(ctx context.Context, fp string, quanta []any, costMs float64, bytes int64, sources []core.SourceRef) {
	owner := n.Owner(fp)
	if owner == "" || owner == n.opts.Advertise {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, n.fetchTimeout)
	defer cancel()
	body, encErr := newStreamBody(quanta)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		"http://"+owner+"/v1/internal/cache/"+fp, body)
	if err != nil {
		n.mWritethroughFailures.Inc()
		return
	}
	req.Header.Set("Content-Type", quantaContentType)
	req.Header.Set(headerCostMs, strconv.FormatFloat(costMs, 'g', -1, 64))
	req.Header.Set(headerBytes, strconv.FormatInt(bytes, 10))
	if len(sources) > 0 {
		raw, err := json.Marshal(sources)
		if err != nil {
			n.mWritethroughFailures.Inc()
			return
		}
		req.Header.Set(headerSources, string(raw))
	}
	resp, err := n.client.Do(req)
	if streamErr := <-encErr; err == nil && streamErr != nil {
		err = streamErr
	}
	if err != nil {
		n.mWritethroughFailures.Inc()
		n.log.Debug("write-through failed", "peer", owner, "fp", fp, "error", err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		n.mWritethroughFailures.Inc()
		return
	}
	n.mWritethroughs.Inc()
}

// newStreamBody encodes quanta as a framed binary stream through a pipe, so
// large entries never materialize a second encoded copy in RAM. The
// returned channel yields the encoder's error once the body is consumed.
func newStreamBody(quanta []any) (io.Reader, <-chan error) {
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := core.WriteQuantaStream(pw, quanta)
		pw.CloseWithError(err)
		errc <- err
	}()
	return pr, errc
}

// HandleCacheGet serves one entry from the local cache to a probing peer.
// The probe counts as a use for the entry (strengthening it against
// eviction): remote demand is demand.
func (n *Node) HandleCacheGet(w http.ResponseWriter, r *http.Request) {
	if n.opts.Cache == nil {
		http.Error(w, "result cache is not enabled", http.StatusNotFound)
		return
	}
	fp := r.PathValue("fp")
	hit, ok := n.opts.Cache.Get(fp)
	if !ok {
		n.mServeMisses.Inc()
		http.Error(w, "no cache entry "+fp, http.StatusNotFound)
		return
	}
	n.mServeHits.Inc()
	if tid, parent, ok := trace.Extract(r.Header); ok {
		n.log.Debug("serving cache entry", "fp", fp, "trace", tid, "parent_span", parent)
	}
	w.Header().Set("Content-Type", quantaContentType)
	w.Header().Set(headerCostMs, strconv.FormatFloat(hit.CostMs, 'g', -1, 64))
	w.Header().Set(headerBytes, strconv.FormatInt(hit.Bytes, 10))
	if len(hit.Sources) > 0 {
		// Source refs travel with the entry, so the fetching peer's adopted
		// copy still answers source invalidations.
		if raw, err := json.Marshal(hit.Sources); err == nil {
			w.Header().Set(headerSources, string(raw))
		}
	}
	if err := core.WriteQuantaStream(w, hit.Quanta); err != nil {
		// Headers are gone; the client sees a truncated stream and counts
		// a remote error.
		n.log.Warn("serving cache entry failed", "fp", fp, "error", err)
	}
}

// HandleCachePut accepts a write-through from a non-owner peer.
func (n *Node) HandleCachePut(w http.ResponseWriter, r *http.Request) {
	if n.opts.Cache == nil {
		http.Error(w, "result cache is not enabled", http.StatusNotFound)
		return
	}
	fp := r.PathValue("fp")
	quanta, err := core.ReadQuantaStream(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad quanta stream: %v", err), http.StatusBadRequest)
		return
	}
	costMs, _ := strconv.ParseFloat(r.Header.Get(headerCostMs), 64)
	var sources []core.SourceRef
	if raw := r.Header.Get(headerSources); raw != "" {
		if err := json.Unmarshal([]byte(raw), &sources); err != nil {
			http.Error(w, fmt.Sprintf("bad %s: %v", headerSources, err), http.StatusBadRequest)
			return
		}
	}
	bytes, _ := strconv.ParseInt(r.Header.Get(headerBytes), 10, 64)
	if bytes <= 0 {
		est, ok := rescache.EstimateBytes(quanta)
		if !ok {
			http.Error(w, "un-cacheable quanta", http.StatusBadRequest)
			return
		}
		bytes = est
	}
	stored := n.opts.Cache.Put(fp, quanta, costMs, bytes, sources)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"stored": stored})
}
