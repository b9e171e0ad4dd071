package restapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/jobs"
	"rheem/internal/rescache"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// newCachedServer builds a server whose context carries a result cache, the
// way cmd/rheem-server wires it with -cache-bytes > 0.
func newCachedServer(t *testing.T, jobOpts jobs.Options) *Server {
	t.Helper()
	metrics := telemetry.NewRegistry()
	cache := rescache.New(rescache.Options{MaxBytes: 16 << 20, Metrics: metrics})
	ctx, err := rheem.NewContext(rheem.Config{
		FastSimulation: true,
		Metrics:        metrics,
		ResultCache:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
		t.Fatal(err)
	}
	return NewWithOptions(ctx, testUDFs(), Options{Jobs: jobOpts})
}

// submitAndWait submits a script as an async job and waits for success.
func submitAndWait(t *testing.T, s *Server, script string) string {
	t.Helper()
	rec := postScript(t, s, "/v1/jobs", script)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateSucceeded)
	return sub.ID
}

func jobCounts(t *testing.T, s *Server, id string) map[string]int64 {
	t.Helper()
	rec := get(s, "/v1/jobs/"+id+"/result")
	if rec.Code != http.StatusOK {
		t.Fatalf("result %s: %d %s", id, rec.Code, rec.Body)
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, raw := range resp.Sinks["counts"] {
		q, err := core.DecodeQuantum(raw)
		if err != nil {
			t.Fatal(err)
		}
		kv := q.(core.KV)
		counts[kv.Key.(string)] = kv.Value.(int64)
	}
	return counts
}

// TestSameJobTwiceHitsCache is the tentpole's acceptance test: the second
// submission of an identical job is served from the cache — its trace has a
// cache-hit span and no re-executed upstream operators — and results match.
func TestSameJobTwiceHitsCache(t *testing.T) {
	s := newCachedServer(t, jobs.Options{Workers: 2, QueueDepth: 8})
	defer drainServer(t, s)

	id1 := submitAndWait(t, s, wordCountScript)
	tr1 := jobTrace(t, s, id1, "")
	if tr1.Find(trace.KindCacheHit) != nil {
		t.Error("first (cold) run has a cache-hit span")
	}
	if tr1.Find(trace.KindCacheStore) == nil {
		t.Error("first run has no cache-store span")
	}

	id2 := submitAndWait(t, s, wordCountScript)
	tr2 := jobTrace(t, s, id2, "")
	if tr2.Find(trace.KindCacheHit) == nil {
		t.Fatal("second (warm) run has no cache-hit span")
	}
	probe := tr2.Find(trace.KindCacheProbe)
	if probe == nil {
		t.Fatal("second run has no cache-probe span")
	}
	// The probe says what it cost: a hit fingerprints twice (before and
	// after substitution) and a file-backed script hashes no collection.
	for attr, want := range map[string]string{"fingerprint_passes": "2", "collections_hashed": "0"} {
		if got, _ := probe.Attr(attr); got != want {
			t.Errorf("cache-probe %s = %q, want %q", attr, got, want)
		}
	}
	// The upstream scan/flatmap/reduce must not re-execute: no operator
	// span besides the cache-scan source and the sink may appear.
	for _, op := range tr2.FindAll(trace.KindOperator) {
		if strings.Contains(op.Name, "FlatMap") || strings.Contains(op.Name, "ReduceBy") ||
			strings.Contains(op.Name, "TextFileSource") {
			t.Errorf("warm run re-executed upstream operator %s", op.Name)
		}
	}

	if c1, c2 := jobCounts(t, s, id1), jobCounts(t, s, id2); len(c2) != len(c1) || c2["a"] != c1["a"] {
		t.Errorf("cached result differs: %v vs %v", c2, c1)
	}

	// The hit counter is exposed over /v1/metrics.
	if v := s.Ctx.Metrics.Counter("rheem_cache_hits_total").Value(); v < 1 {
		t.Errorf("rheem_cache_hits_total = %g, want >= 1", v)
	}
	rec := get(s, "/v1/metrics")
	if !strings.Contains(rec.Body.String(), "rheem_cache_hits_total") {
		t.Error("metrics exposition lacks rheem_cache_hits_total")
	}
}

// TestConcurrentIdenticalJobsComputeOnce submits N identical jobs
// concurrently: single-flight must elect exactly one leader that computes
// (one cache-store) while every other job waits and then hits.
func TestConcurrentIdenticalJobsComputeOnce(t *testing.T) {
	const n = 6
	s := newCachedServer(t, jobs.Options{Workers: 4, QueueDepth: n + 2})
	defer drainServer(t, s)

	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submitAndWait(t, s, wordCountScript)
		}(i)
	}
	wg.Wait()

	computed, hits := 0, 0
	for _, id := range ids {
		tr := jobTrace(t, s, id, "")
		if tr.Find(trace.KindCacheStore) != nil {
			computed++
		}
		if tr.Find(trace.KindCacheHit) != nil {
			hits++
		}
	}
	if computed != 1 {
		t.Errorf("%d jobs computed (have cache-store spans), want exactly 1", computed)
	}
	if hits != n-1 {
		t.Errorf("%d jobs hit the cache, want %d", hits, n-1)
	}
	want := jobCounts(t, s, ids[0])
	for _, id := range ids[1:] {
		if got := jobCounts(t, s, id); got["a"] != want["a"] || len(got) != len(want) {
			t.Errorf("job %s result %v differs from %v", id, got, want)
		}
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	s := newCachedServer(t, jobs.Options{Workers: 1, QueueDepth: 4})
	defer drainServer(t, s)
	submitAndWait(t, s, wordCountScript)

	rec := get(s, "/v1/cache/stats?details=true")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var st rescache.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries < 1 || st.Stores < 1 || len(st.Details) < 1 {
		t.Fatalf("stats after one job = %+v", st)
	}
	if st.Details[0].Sources[0].Name != "dfs://words.txt" {
		t.Errorf("entry sources = %+v, want the input file", st.Details[0].Sources)
	}

	// Per-fingerprint delete.
	fp := st.Details[0].Fingerprint
	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/cache/"+fp, nil))
	if del.Code != http.StatusOK {
		t.Fatalf("delete %s: %d %s", fp, del.Code, del.Body)
	}
	del = httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/cache/"+fp, nil))
	if del.Code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", del.Code)
	}
}

func TestCacheInvalidationEndpoints(t *testing.T) {
	s := newCachedServer(t, jobs.Options{Workers: 1, QueueDepth: 4})
	defer drainServer(t, s)
	submitAndWait(t, s, wordCountScript)

	// Invalidate the source dataset: the entry reading it is dropped and a
	// rerun recomputes (no cache-hit span).
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/cache?source=dfs%3A%2F%2Fwords.txt", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("invalidate: %d %s", rec.Code, rec.Body)
	}
	var inv map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if inv["dropped"].(float64) < 1 {
		t.Errorf("invalidation dropped %v entries, want >= 1", inv["dropped"])
	}
	id := submitAndWait(t, s, wordCountScript)
	if tr := jobTrace(t, s, id, ""); tr.Find(trace.KindCacheHit) != nil {
		t.Error("job after source invalidation still hit the cache")
	}

	// Full clear.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/cache", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("clear: %d %s", rec.Code, rec.Body)
	}
	stats := get(s, "/v1/cache/stats")
	var st rescache.Stats
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 0 {
		t.Errorf("entries after clear = %d", st.Entries)
	}
}

// TestCacheEvictionOverREST: an entry evicted for capacity is gone — the
// stats endpoint counts the eviction and no longer lists it, and a rerun
// recomputes the same result instead of hitting.
func TestCacheEvictionOverREST(t *testing.T) {
	metrics := telemetry.NewRegistry()
	cache := rescache.New(rescache.Options{MaxBytes: 512, Metrics: metrics})
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, Metrics: metrics, ResultCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
		t.Fatal(err)
	}
	s := NewWithOptions(ctx, testUDFs(), Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	defer drainServer(t, s)

	stats := func() rescache.Stats {
		t.Helper()
		var st rescache.Stats
		if err := json.Unmarshal(get(s, "/v1/cache/stats?details=true").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	id1 := submitAndWait(t, s, wordCountScript)
	if st := stats(); st.Entries < 1 || st.Evictions != 0 {
		t.Fatalf("stats after the cold run: %+v", st)
	}
	// A filler the size of the whole cache, worth more per byte than any
	// job result, evicts every entry the job stored.
	if !cache.Put("filler", []any{int64(1)}, 1e6, 512, nil) {
		t.Fatal("filler rejected")
	}
	st := stats()
	if st.Evictions < 1 || st.Entries != 1 || len(st.Details) != 1 || st.Details[0].Fingerprint != "filler" {
		t.Fatalf("stats after the filler: %+v", st)
	}

	id2 := submitAndWait(t, s, wordCountScript)
	if tr := jobTrace(t, s, id2, ""); tr.Find(trace.KindCacheHit) != nil {
		t.Error("run after eviction hit the cache")
	}
	if c1, c2 := jobCounts(t, s, id1), jobCounts(t, s, id2); len(c2) != len(c1) || c2["a"] != c1["a"] {
		t.Errorf("recomputed result differs: %v vs %v", c2, c1)
	}
	if body := get(s, "/v1/metrics").Body.String(); !strings.Contains(body, "rheem_cache_evictions_total") {
		t.Error("metrics exposition lacks rheem_cache_evictions_total")
	}
}

func TestCacheEndpointsWithoutCache(t *testing.T) {
	s := newTestServer(t) // no ResultCache configured
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/cache/stats", nil),
		httptest.NewRequest(http.MethodDelete, "/v1/cache", nil),
		httptest.NewRequest(http.MethodDelete, "/v1/cache/abc", nil),
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s without cache: %d, want 404", req.Method, req.URL.Path, rec.Code)
		}
	}
}

// drainServer shuts the server's job manager down so background workers do
// not leak into other tests.
func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Logf("drain: %v", err)
	}
}
