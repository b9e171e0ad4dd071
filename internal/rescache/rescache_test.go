package rescache

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
	"rheem/latin"
)

func testCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	return New(opts)
}

func put(t *testing.T, c *Cache, fp string, n int, costMs float64, bytes int64) {
	t.Helper()
	quanta := make([]any, n)
	for i := range quanta {
		quanta[i] = int64(i)
	}
	if !c.Put(fp, quanta, costMs, bytes, nil) {
		t.Fatalf("Put(%s) rejected", fp)
	}
}

func TestCacheGetPut(t *testing.T) {
	c := testCache(t, Options{})
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	put(t, c, "a", 3, 50, 100)
	hit, ok := c.Get("a")
	if !ok {
		t.Fatal("miss after Put")
	}
	if len(hit.Quanta) != 3 || hit.CostMs != 50 || hit.Bytes != 100 {
		t.Errorf("hit = %+v", hit)
	}
	st := c.Stats(false)
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheEvictionByBenefit(t *testing.T) {
	c := testCache(t, Options{MaxBytes: 250})
	// cheap: low cost per byte. expensive: high cost per byte.
	put(t, c, "cheap", 1, 1, 100)
	put(t, c, "pricey", 1, 1000, 100)
	// Hits strengthen entries; give pricey one more use.
	c.Get("pricey")
	// Inserting 100 more bytes exceeds 250; "cheap" has the lowest
	// benefit/size ratio and must be the victim.
	put(t, c, "mid", 1, 100, 100)
	if _, ok := c.Get("cheap"); ok {
		t.Error("lowest-benefit entry survived eviction")
	}
	if _, ok := c.Get("pricey"); !ok {
		t.Error("high-benefit entry was evicted")
	}
	if _, ok := c.Get("mid"); !ok {
		t.Error("just-inserted entry was evicted despite higher benefit than the victim")
	}
	st := c.Stats(false)
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 250 {
		t.Errorf("bytes = %d exceeds bound", st.Bytes)
	}
}

func TestCacheOversizedEntryRejected(t *testing.T) {
	c := testCache(t, Options{MaxBytes: 100})
	quanta := []any{int64(1)}
	if c.Put("huge", quanta, 10, 101, nil) {
		t.Error("entry larger than the cache bound was admitted")
	}
	if st := c.Stats(false); st.Entries != 0 {
		t.Errorf("entries = %d after rejected put", st.Entries)
	}
}

func TestCacheTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	c := testCache(t, Options{TTL: time.Minute, now: func() time.Time { return now }})
	put(t, c, "a", 1, 10, 10)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("miss before TTL")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Error("hit after TTL expiry")
	}
	st := c.Stats(false)
	if st.Entries != 0 || st.Evictions != 1 {
		t.Errorf("stats after TTL sweep = %+v", st)
	}
}

func TestCacheInvalidateSource(t *testing.T) {
	c := testCache(t, Options{})
	c.Put("a", []any{int64(1)}, 10, 10, []core.SourceRef{{Name: "dfs://x.txt"}})
	c.Put("b", []any{int64(2)}, 10, 10, []core.SourceRef{{Name: "dfs://y.txt"}})
	if v := c.SourceVersion("dfs://x.txt"); v != 0 {
		t.Fatalf("initial version = %d", v)
	}
	if n := c.InvalidateSource("dfs://x.txt"); n != 1 {
		t.Errorf("invalidated %d entries, want 1", n)
	}
	if v := c.SourceVersion("dfs://x.txt"); v != 1 {
		t.Errorf("version after invalidation = %d, want 1", v)
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry reading the invalidated source survived")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("unrelated entry was dropped")
	}
}

func TestCacheDeleteAndClear(t *testing.T) {
	c := testCache(t, Options{})
	put(t, c, "a", 1, 10, 10)
	put(t, c, "b", 1, 10, 10)
	if !c.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if c.Delete("a") {
		t.Error("double Delete(a) = true")
	}
	if n := c.Clear(); n != 1 {
		t.Errorf("Clear dropped %d, want 1", n)
	}
	if st := c.Stats(false); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after clear = %+v", st)
	}
}

func TestCacheStatsDetails(t *testing.T) {
	c := testCache(t, Options{})
	put(t, c, "low", 1, 1, 100)
	put(t, c, "high", 2, 1000, 100)
	st := c.Stats(true)
	if len(st.Details) != 2 {
		t.Fatalf("details = %d entries", len(st.Details))
	}
	if st.Details[0].Fingerprint != "high" {
		t.Errorf("details not sorted by benefit: first = %s", st.Details[0].Fingerprint)
	}
	if st.Details[0].Quanta != 2 {
		t.Errorf("quanta = %d, want 2", st.Details[0].Quanta)
	}
}

func TestCacheMetricsCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := testCache(t, Options{Metrics: reg})
	put(t, c, "a", 1, 10, 10)
	c.Get("a")
	c.Get("nope")
	if v := reg.Counter("rheem_cache_hits_total").Value(); v != 1 {
		t.Errorf("rheem_cache_hits_total = %g", v)
	}
	if v := reg.Counter("rheem_cache_misses_total").Value(); v != 1 {
		t.Errorf("rheem_cache_misses_total = %g", v)
	}
	if v := reg.Counter("rheem_cache_stores_total").Value(); v != 1 {
		t.Errorf("rheem_cache_stores_total = %g", v)
	}
	if v := reg.Gauge("rheem_cache_entries").Value(); v != 1 {
		t.Errorf("rheem_cache_entries = %g", v)
	}
}

func TestSingleFlightClaim(t *testing.T) {
	c := testCache(t, Options{})
	leader, _ := c.Claim("fp1")
	if !leader {
		t.Fatal("first claimant is not leader")
	}
	follower, done := c.Claim("fp1")
	if follower {
		t.Fatal("second claimant became leader")
	}
	select {
	case <-done:
		t.Fatal("done closed before release")
	default:
	}
	c.Release("fp1")
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("done not closed by Release")
	}
	// After release the fingerprint is claimable again.
	if leader, _ := c.Claim("fp1"); !leader {
		t.Error("fingerprint not claimable after release")
	}
	c.Release("fp1")
}

// TestSingleFlightComputeOnce drives N concurrent "jobs" through the
// claim/wait/re-probe protocol — a won claim re-probed before computing, as
// Session.flight does — and asserts the result is computed once.
func TestSingleFlightComputeOnce(t *testing.T) {
	c := testCache(t, Options{})
	const n = 16
	var computed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := c.Get("job-fp"); ok {
					return
				}
				leader, done := c.Claim("job-fp")
				if leader {
					// A leader may have stored and released between the
					// miss above and this claim: look again before computing.
					if _, ok := c.Get("job-fp"); ok {
						c.Release("job-fp")
						return
					}
					computed.Add(1)
					c.Put("job-fp", []any{int64(42)}, 100, 8, nil)
					c.Release("job-fp")
					return
				}
				<-done
			}
		}()
	}
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Errorf("computed %d times, want exactly 1", got)
	}
}

// TestSingleFlightLeaderFailure: a leader that fails (releases without
// Put) must not wedge followers — one of them takes over.
func TestSingleFlightLeaderFailure(t *testing.T) {
	c := testCache(t, Options{})
	leader, _ := c.Claim("fp")
	if !leader {
		t.Fatal("not leader")
	}
	result := make(chan bool, 1)
	go func() {
		for {
			if _, ok := c.Get("fp"); ok {
				result <- true
				return
			}
			leader, done := c.Claim("fp")
			if leader {
				c.Put("fp", []any{int64(1)}, 10, 8, nil)
				c.Release("fp")
				continue
			}
			<-done
		}
	}()
	c.Release("fp") // leader "crashes": releases without storing
	select {
	case <-result:
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not take over after leader failure")
	}
}

func TestEstimateBytes(t *testing.T) {
	n, ok := EstimateBytes(nil)
	if !ok || n != 0 {
		t.Errorf("EstimateBytes(nil) = %d, %v", n, ok)
	}
	quanta := make([]any, 1000)
	for i := range quanta {
		quanta[i] = "hello world"
	}
	n, ok = EstimateBytes(quanta)
	if !ok {
		t.Fatal("encodable quanta reported un-encodable")
	}
	// Each quantum encodes to ~24 bytes plus overhead; the estimate must be
	// in a sane range, not off by orders of magnitude.
	if n < 10_000 || n > 100_000 {
		t.Errorf("EstimateBytes = %d for 1000 short strings", n)
	}
	if _, ok := EstimateBytes([]any{make(chan int)}); ok {
		t.Error("un-encodable quantum reported encodable")
	}
}

// --- session substitution over real plans --------------------------------

func sessMap(q any) any { return q }

func buildSessPlan() (*core.Plan, *core.Operator, *core.Operator) {
	p := core.NewPlan("sess")
	src := p.Add(&core.Operator{Kind: core.KindTextFileSource, Label: "lines", Params: core.Params{Path: "dfs://in.txt"}})
	m := p.Add(&core.Operator{Kind: core.KindMap, Label: "xform", UDF: core.UDFs{Map: sessMap}})
	sink := p.Add(&core.Operator{Kind: core.KindCollectionSink, Label: "out"})
	p.Chain(src, m, sink)
	return p, m, sink
}

func TestSessionSinkSubstitution(t *testing.T) {
	c := testCache(t, Options{})
	p1, _, sink1 := buildSessPlan()
	fps := core.FingerprintPlan(p1, core.FingerprintOptions{SourceVersion: c.SourceVersion})
	sinkFP := fps[sink1]
	if sinkFP == nil {
		t.Fatal("sink not fingerprinted")
	}
	c.Put(sinkFP.Hash, []any{"a", "b"}, 500, 16, sinkFP.Sources)

	p2, _, sink2 := buildSessPlan()
	sess := c.Begin(context.Background(), p2)
	defer sess.Close()
	if sess.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", sess.Hits())
	}
	// The sink survives (result collection is keyed by its pointer) but is
	// now fed by a cache-scan holding the cached quanta.
	if len(p2.Operators()) != 2 {
		t.Errorf("substituted plan has %d operators, want 2 (scan + sink):\n%s", len(p2.Operators()), p2)
	}
	feed := sink2.Inputs()[0]
	if feed.Kind != core.KindCollectionSource || len(feed.Params.Collection) != 2 {
		t.Errorf("sink fed by %s with %d quanta", feed, len(feed.Params.Collection))
	}
	if err := p2.Validate(); err != nil {
		t.Errorf("substituted plan invalid: %v", err)
	}
	// The substituted plan's sink must not be re-fingerprinted (the scan is
	// poisoned), so the result cannot be re-stored under a new identity.
	if sess.Fingerprints()[sink2] != nil {
		t.Error("substituted sink still fingerprinted")
	}
}

func TestSessionInteriorSubstitution(t *testing.T) {
	c := testCache(t, Options{})
	p1, m1, _ := buildSessPlan()
	fps := core.FingerprintPlan(p1, core.FingerprintOptions{SourceVersion: c.SourceVersion})
	// Cache only the interior map output, not the sink.
	c.Put(fps[m1].Hash, []any{"x"}, 300, 8, fps[m1].Sources)

	p2, _, sink2 := buildSessPlan()
	sess := c.Begin(context.Background(), p2)
	defer sess.Close()
	if sess.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", sess.Hits())
	}
	feed := sink2.Inputs()[0]
	if feed.Kind != core.KindCollectionSource {
		t.Errorf("sink fed by %s, want cache-scan collection source", feed)
	}
	if err := p2.Validate(); err != nil {
		t.Errorf("substituted plan invalid: %v", err)
	}
	// The sink is still fingerprintable? No: its input is a poisoned scan.
	if sess.Fingerprints()[sink2] != nil {
		t.Error("sink downstream of a cache-scan still fingerprinted")
	}
}

func TestSessionMissLeavesplanIntact(t *testing.T) {
	c := testCache(t, Options{})
	p, _, _ := buildSessPlan()
	sess := c.Begin(context.Background(), p)
	defer sess.Close()
	if sess.Hits() != 0 {
		t.Fatalf("hits = %d on cold cache", sess.Hits())
	}
	if len(p.Operators()) != 3 {
		t.Errorf("cold probe mutated the plan: %d operators", len(p.Operators()))
	}
	// The sink's fingerprint is claimed (this session leads computation).
	if len(sess.claimed) != 1 {
		t.Errorf("claimed %d fingerprints, want 1 (the sink)", len(sess.claimed))
	}
}

// publishOnFetch is a remote tier whose every fetch misses, but which first
// stores the fingerprint in the local cache: it stands for a leader that
// stores and releases between a session's miss and its claim.
type publishOnFetch struct{ c *Cache }

func (r publishOnFetch) Fetch(_ context.Context, fp string) (RemoteHit, bool) {
	r.c.Put(fp, []any{"done"}, 100, 8, nil)
	return RemoteHit{}, false
}

func (publishOnFetch) Store(context.Context, string, []any, float64, int64, []core.SourceRef) {}

// TestSessionReprobesAWonClaim forces the interleaving behind the flaky
// compute-once tests: the sink's result is published after the session's
// miss and before its claim. The session must serve it, not lead a second
// computation, and the re-probe must not count a second miss.
func TestSessionReprobesAWonClaim(t *testing.T) {
	c := testCache(t, Options{})
	c.SetRemote(publishOnFetch{c})
	p, _, sink := buildSessPlan()
	sinkFP := core.FingerprintPlan(p, core.FingerprintOptions{SourceVersion: c.SourceVersion})[sink].Hash
	sess := c.Begin(context.Background(), p)
	defer sess.Close()
	if sess.Hits() != 1 || len(sess.claimed) != 0 {
		t.Fatalf("hits = %d, claims %v: the published result was computed again", sess.Hits(), sess.claimed)
	}
	if feed := sink.Inputs()[0]; !strings.HasPrefix(feed.Label, ScanLabelPrefix) {
		t.Fatalf("sink fed by %s, want a cache-scan", feed)
	}
	if leader, _ := c.Claim(sinkFP); !leader {
		t.Error("the session kept a claim it released")
	}

	// A plain miss leads, and its re-probe counts no miss of its own.
	fresh := testCache(t, Options{})
	p, _, _ = buildSessPlan()
	sess = fresh.Begin(context.Background(), p)
	defer sess.Close()
	if st := fresh.Stats(false); len(sess.claimed) != 1 || st.Misses != int64(sess.probed) {
		t.Fatalf("claims %v, %d misses for %d probes", sess.claimed, st.Misses, sess.probed)
	}
}

func TestSessionNilSafety(t *testing.T) {
	var c *Cache
	sess := c.Begin(context.Background(), nil)
	if sess != nil {
		t.Fatal("nil cache produced a session")
	}
	// All methods no-op on nil.
	sess.Close()
	if sess.Hits() != 0 || sess.Fingerprints() != nil {
		t.Error("nil session not inert")
	}
}

// --- content hashing per session ------------------------------------------

func hashedKey(q any) any      { return q.(core.Record)[0] }
func hashedFirst(a, b any) any { return a }

// probeCounts opens a session for plan under a fresh tracer, lets fn use it,
// and returns the cache-probe span's fingerprint_passes and
// collections_hashed attributes.
func probeCounts(t *testing.T, c *Cache, plan *core.Plan, fn func(*Session)) (passes, hashed string) {
	t.Helper()
	tr := trace.New(trace.KindJob, "job")
	sess := c.Begin(trace.NewContext(context.Background(), tr.Root()), plan)
	fn(sess)
	sess.Close()
	probe := tr.Snapshot().Find(trace.KindCacheProbe)
	if probe == nil {
		t.Fatal("no cache-probe span")
	}
	passes, _ = probe.Attr("fingerprint_passes")
	hashed, _ = probe.Attr("collections_hashed")
	return passes, hashed
}

// TestRegisteredCollectionHashedOnce: a registered collection is hashed when
// it is registered and never by a job — a miss fingerprints once, a hit
// twice, neither touches the content — while a plan whose source carries no
// digest (the fluent path) hashes it exactly once per session, hit or miss.
func TestRegisteredCollectionHashedOnce(t *testing.T) {
	data := make([]any, 2000)
	for i := range data {
		data[i] = core.Record{int64(i % 11), float64(i)}
	}
	reg := latin.NewRegistry()
	reg.RegisterKey("hashedKey", hashedKey)
	reg.RegisterReduce("hashedFirst", hashedFirst)
	reg.RegisterCollection("recs", data)
	registered := func() (*core.Plan, *core.Operator) {
		compiled, err := latin.Compile(`recs = load collection recs;
agg = reduceby recs key hashedKey using hashedFirst;
collect agg;`, reg)
		if err != nil {
			t.Fatal(err)
		}
		return compiled.Plan, compiled.Sinks["agg"]
	}
	fluent := func() (*core.Plan, *core.Operator) {
		p := core.NewPlan("fluent")
		src := p.Add(&core.Operator{Kind: core.KindCollectionSource, Label: "recs",
			Params: core.Params{Collection: append([]any(nil), data...)}})
		rb := p.Add(&core.Operator{Kind: core.KindReduceBy, Label: "hashedFirst",
			UDF: core.UDFs{Key: hashedKey, Reduce: hashedFirst, Names: "key=hashedKey;reduce=hashedFirst;"}})
		sink := p.Add(&core.Operator{Kind: core.KindCollectionSink, Label: "agg"})
		p.Chain(src, rb, sink)
		return p, sink
	}
	for _, tc := range []struct {
		name       string
		build      func() (*core.Plan, *core.Operator)
		wantHashed string
	}{
		{"registered", registered, "0"},
		{"fluent", fluent, "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCache(t, Options{})
			for job := 0; job < 5; job++ {
				plan, sink := tc.build()
				wantPasses, wantHits := "1", 0
				if job > 0 {
					wantPasses, wantHits = "2", 1
				}
				passes, hashed := probeCounts(t, c, plan, func(sess *Session) {
					if sess.Hits() != wantHits {
						t.Fatalf("job %d: %d hits, want %d", job, sess.Hits(), wantHits)
					}
					if job == 0 {
						// The miss publishes its result; every later job hits it.
						info := sess.Fingerprints()[sink]
						c.Put(info.Hash, []any{"cached"}, 100, 16, info.Sources)
					}
				})
				if passes != wantPasses || hashed != tc.wantHashed {
					t.Errorf("job %d: fingerprint_passes=%s collections_hashed=%s, want %s and %s",
						job, passes, hashed, wantPasses, tc.wantHashed)
				}
			}
		})
	}
}
