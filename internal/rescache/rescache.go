// Package rescache is the cross-job intermediate-result cache: it stores
// materialized operator outputs keyed by canonical subtree fingerprints
// (core.FingerprintPlan), so a server handling repeated traffic executes
// each distinct subplan once and serves later jobs from memory.
//
// The store is bounded by total estimated bytes with cost-aware eviction
// (benefit/size ratio: estimated compute cost saved × hits, divided by the
// entry's size), supports TTL expiry and explicit invalidation by source
// dataset, and is safe for concurrent jobs: single-flight claims ensure N
// identical concurrent jobs compute a missing result exactly once.
//
// With a spill store configured (Options.SpillStore + SpillMaxBytes), the
// cache is two-tiered: capacity eviction demotes entries to a DFS-backed
// disk tier instead of dropping them, and probes that miss RAM transparently
// reload from disk (see spill.go).
package rescache

import (
	"sort"
	"sync"
	"time"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// Options configure a Cache.
type Options struct {
	// MaxBytes bounds the total estimated size of cached payloads. Zero or
	// negative disables the bound.
	MaxBytes int64
	// TTL expires entries this long after their last store. Zero disables.
	TTL time.Duration
	// MinCostMs is the minimum estimated compute cost (milliseconds) a
	// subtree must have to be worth caching; cheaper results are recomputed.
	MinCostMs float64
	// SpillStore, when set together with a positive SpillMaxBytes, enables
	// the disk tier: capacity-evicted entries are demoted to this DFS store
	// (under SpillPrefix) instead of dropped. An existing store is
	// re-indexed at startup.
	SpillStore *dfs.Store
	// SpillMaxBytes bounds the disk tier. Zero disables spilling.
	SpillMaxBytes int64
	// Metrics receives rheem_cache_* counters and gauges (nil-safe).
	Metrics *telemetry.Registry
	// now overrides time.Now in tests.
	now func() time.Time
}

// DefaultMinCostMs is the caching threshold applied when Options.MinCostMs
// is zero: subtrees estimated cheaper than this are not worth the memory.
const DefaultMinCostMs = 1.0

// Entry is one cached materialized result.
type entry struct {
	fp      string
	quanta  []any
	bytes   int64
	costMs  float64 // estimated compute cost of the producing subtree
	hits    int64
	sources []core.SourceRef
	stored  time.Time
	lastUse time.Time
}

// benefit is the eviction score: cost saved per byte retained. Entries are
// evicted lowest-benefit first. hits+1 counts the initial store as one use,
// so two never-hit entries rank by cost/size.
func (e *entry) benefit() float64 {
	b := e.bytes
	if b < 1 {
		b = 1
	}
	return e.costMs * float64(e.hits+1) / float64(b)
}

// EntryStats describes one cache entry for the stats endpoint.
type EntryStats struct {
	Fingerprint string           `json:"fingerprint"`
	Quanta      int              `json:"quanta"`
	Bytes       int64            `json:"bytes"`
	CostMs      float64          `json:"cost_ms"`
	Hits        int64            `json:"hits"`
	Sources     []core.SourceRef `json:"sources,omitempty"`
	StoredAt    time.Time        `json:"stored_at"`
	LastUsedAt  time.Time        `json:"last_used_at"`
	// Tier is "disk" for spilled entries and empty for RAM-resident ones.
	Tier string `json:"tier,omitempty"`
}

// Stats is the cache-wide summary for the stats endpoint.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	TTLMs     int64 `json:"ttl_ms"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	// Disk (spill) tier. SpillMaxBytes is zero when spilling is disabled.
	SpillEntries  int   `json:"spill_entries"`
	SpillBytes    int64 `json:"spill_bytes"`
	SpillMaxBytes int64 `json:"spill_max_bytes"`
	Spills        int64 `json:"spills"`
	SpillReloads  int64 `json:"spill_reloads"`
	SpillDrops    int64 `json:"spill_drops"`
	SpillErrors   int64 `json:"spill_errors"`

	// SourceVersions is the per-source invalidation version table (details
	// only) — comparing it across peers shows gossip convergence.
	SourceVersions map[string]uint64 `json:"source_versions,omitempty"`

	Details []EntryStats `json:"details,omitempty"`
}

// Cache is the cross-job result cache. The zero value is not usable; use New.
type Cache struct {
	opts Options

	mu       sync.Mutex
	entries  map[string]*entry
	bytes    int64
	spilled  map[string]*spillEntry // disk tier index (fingerprint -> file)
	versions map[string]uint64      // source dataset name -> current version
	flights  map[string]*flight
	fetches  map[string]*flight // in-flight remote fetches (see remote.go)
	remote   RemoteTier         // fleet tier; nil on single-node servers

	hits, misses, stores, evictions int64

	spillBytes                                    int64
	spills, spillReloads, spillDrops, spillErrors int64

	mHits, mMisses, mStores, mEvictions          *telemetry.Counter
	mSpills, mSpillReloads, mSpillDrops          *telemetry.Counter
	mSpillErrors                                 *telemetry.Counter
	gBytes, gEntries, gSpillBytes, gSpillEntries *telemetry.Gauge
}

// flight is a single-flight claim on a fingerprint: the first job to miss
// becomes the leader and computes; followers wait for done and re-probe.
type flight struct {
	done chan struct{}
}

// New creates a Cache.
func New(opts Options) *Cache {
	if opts.MinCostMs == 0 {
		opts.MinCostMs = DefaultMinCostMs
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	c := &Cache{
		opts:     opts,
		entries:  map[string]*entry{},
		spilled:  map[string]*spillEntry{},
		versions: map[string]uint64{},
		flights:  map[string]*flight{},
		fetches:  map[string]*flight{},
	}
	m := opts.Metrics
	m.Help("rheem_cache_hits_total", "Result-cache probe hits.")
	m.Help("rheem_cache_misses_total", "Result-cache probe misses.")
	m.Help("rheem_cache_stores_total", "Results materialized into the cache.")
	m.Help("rheem_cache_evictions_total", "Cache entries evicted (capacity or TTL).")
	m.Help("rheem_cache_bytes", "Estimated bytes of cached payloads.")
	m.Help("rheem_cache_entries", "Live cache entries.")
	m.Help("rheem_cache_spills_total", "Cache entries demoted to the disk tier.")
	m.Help("rheem_cache_spill_reloads_total", "Cache probes served from the disk tier.")
	m.Help("rheem_cache_spill_drops_total", "Disk-tier entries dropped (spill bound or TTL).")
	m.Help("rheem_cache_spill_errors_total", "Spill write/read failures.")
	m.Help("rheem_cache_spill_bytes", "Bytes of payloads resident in the disk tier.")
	m.Help("rheem_cache_spill_entries", "Live disk-tier entries.")
	c.mHits = m.Counter("rheem_cache_hits_total")
	c.mMisses = m.Counter("rheem_cache_misses_total")
	c.mStores = m.Counter("rheem_cache_stores_total")
	c.mEvictions = m.Counter("rheem_cache_evictions_total")
	c.mSpills = m.Counter("rheem_cache_spills_total")
	c.mSpillReloads = m.Counter("rheem_cache_spill_reloads_total")
	c.mSpillDrops = m.Counter("rheem_cache_spill_drops_total")
	c.mSpillErrors = m.Counter("rheem_cache_spill_errors_total")
	c.gBytes = m.Gauge("rheem_cache_bytes")
	c.gEntries = m.Gauge("rheem_cache_entries")
	c.gSpillBytes = m.Gauge("rheem_cache_spill_bytes")
	c.gSpillEntries = m.Gauge("rheem_cache_spill_entries")
	if c.spillOn() {
		c.loadSpillIndex()
	}
	return c
}

// MinCostMs returns the configured caching cost threshold.
func (c *Cache) MinCostMs() float64 { return c.opts.MinCostMs }

// SourceVersion returns the current version of a named source dataset (for
// core.FingerprintOptions.SourceVersion). Never-invalidated sources are
// version 0.
func (c *Cache) SourceVersion(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[name]
}

// Hit is a successful probe: the cached quanta plus the observed (exact)
// cardinality and estimated saved cost. Reloaded marks a hit served from
// the disk (spill) tier rather than RAM; Remote marks one fetched from a
// peer on the cluster tier.
type Hit struct {
	Quanta   []any
	CostMs   float64
	Bytes    int64
	Sources  []core.SourceRef // read-only view; needed when re-serving the entry to a peer
	Reloaded bool
	Remote   bool
}

// Get probes the cache. A hit bumps the entry's use count (strengthening it
// against eviction) and returns a copy-free view of the stored quanta —
// callers must not mutate the slice. A probe that misses RAM but finds the
// fingerprint in the disk tier reloads it transparently.
func (c *Cache) Get(fp string) (Hit, bool) { return c.get(fp, nil, true) }

// get is Get with a parent span for spill/reload instrumentation.
func (c *Cache) get(fp string, parent *trace.Span, countMiss bool) (Hit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	e := c.entries[fp]
	reloaded := false
	if e == nil && c.spillOn() {
		e = c.reloadLocked(fp, parent)
		reloaded = e != nil
	}
	if e == nil {
		if countMiss {
			c.misses++
			c.mMisses.Inc()
		}
		return Hit{}, false
	}
	e.hits++
	e.lastUse = c.opts.now()
	c.hits++
	c.mHits.Inc()
	c.publishGaugesLocked()
	return Hit{Quanta: e.quanta, CostMs: e.costMs, Bytes: e.bytes, Sources: e.sources, Reloaded: reloaded}, true
}

// Put stores a materialized result. Entries whose estimated size alone
// exceeds MaxBytes are rejected (returning false); otherwise the lowest
// benefit/size entries are evicted until the bound holds. Storing an
// already-present fingerprint refreshes the payload and TTL but keeps the
// accumulated hit count.
func (c *Cache) Put(fp string, quanta []any, costMs float64, bytes int64, sources []core.SourceRef) bool {
	return c.put(fp, quanta, costMs, bytes, sources, nil)
}

// put is Put with a parent span for spill instrumentation.
func (c *Cache) put(fp string, quanta []any, costMs float64, bytes int64, sources []core.SourceRef, parent *trace.Span) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	if c.opts.MaxBytes > 0 && bytes > c.opts.MaxBytes {
		return false
	}
	now := c.opts.now()
	var hits int64
	if old := c.entries[fp]; old != nil {
		hits = old.hits
		c.removeLocked(old)
	}
	if c.spillOn() {
		// A fresher RAM store supersedes any stale disk copy.
		if se := c.spilled[fp]; se != nil {
			c.dropSpillLocked(se, true)
		}
	}
	e := &entry{
		fp: fp, quanta: quanta, bytes: bytes, costMs: costMs, hits: hits,
		sources: sources, stored: now, lastUse: now,
	}
	c.entries[fp] = e
	c.bytes += bytes
	c.stores++
	c.mStores.Inc()
	c.evictLocked(parent)
	c.publishGaugesLocked()
	return c.entries[fp] == e
}

// evictLocked drops lowest-benefit entries until the byte bound holds. A
// just-inserted entry competes on equal terms and may itself be the victim.
// With the spill tier enabled, each victim is demoted to disk before its
// RAM copy is released.
func (c *Cache) evictLocked(parent *trace.Span) {
	if c.opts.MaxBytes <= 0 {
		return
	}
	for c.bytes > c.opts.MaxBytes && len(c.entries) > 0 {
		var victim *entry
		for _, e := range c.entries {
			if victim == nil || e.benefit() < victim.benefit() ||
				(e.benefit() == victim.benefit() && e.lastUse.Before(victim.lastUse)) {
				victim = e
			}
		}
		if c.spillOn() {
			c.spillLocked(victim, parent)
		}
		c.removeLocked(victim)
		c.evictions++
		c.mEvictions.Inc()
	}
}

// sweepLocked lazily expires TTL-exceeded entries in both tiers. Expiry is
// a real drop — stale RAM entries are not demoted.
func (c *Cache) sweepLocked() {
	if c.opts.TTL <= 0 {
		return
	}
	cutoff := c.opts.now().Add(-c.opts.TTL)
	for _, e := range c.entries {
		if e.stored.Before(cutoff) {
			c.removeLocked(e)
			c.evictions++
			c.mEvictions.Inc()
		}
	}
	for _, se := range c.spilled {
		if se.stored.Before(cutoff) {
			c.dropSpillLocked(se, true)
			c.spillDrops++
			c.mSpillDrops.Inc()
		}
	}
	c.publishGaugesLocked()
}

func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.fp)
	c.bytes -= e.bytes
}

func (c *Cache) publishGaugesLocked() {
	c.gBytes.Set(float64(c.bytes))
	c.gEntries.Set(float64(len(c.entries)))
	c.gSpillBytes.Set(float64(c.spillBytes))
	c.gSpillEntries.Set(float64(len(c.spilled)))
}

// Delete drops one entry by fingerprint — from either tier — reporting
// whether it existed.
func (c *Cache) Delete(fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	found := false
	if e := c.entries[fp]; e != nil {
		c.removeLocked(e)
		found = true
	}
	if se := c.spilled[fp]; se != nil {
		c.dropSpillLocked(se, true)
		found = true
	}
	if found {
		c.publishGaugesLocked()
	}
	return found
}

// Clear drops every entry in both tiers (versions and counters are
// retained). Spill files are deleted from the store.
func (c *Cache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries) + len(c.spilled)
	c.entries = map[string]*entry{}
	c.bytes = 0
	for _, se := range c.spilled {
		c.dropSpillLocked(se, true)
	}
	c.publishGaugesLocked()
	return n
}

// InvalidateSource bumps the version of a named source dataset and drops
// every entry — in either tier — whose subtree read it. Future fingerprints
// of plans reading the dataset change, so stale entries cannot be hit even
// if a concurrent store races the invalidation.
func (c *Cache) InvalidateSource(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.advanceSourceLocked(name, c.versions[name]+1)
}

// AdvanceSource raises a source dataset's version to at least the given
// value, dropping affected entries — the gossip merge: a peer that learns a
// higher version via heartbeat converges to it. Versions never regress;
// stale gossip is a no-op returning -1. Otherwise the number of dropped
// entries is returned.
func (c *Cache) AdvanceSource(name string, version uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if version <= c.versions[name] {
		return -1
	}
	return c.advanceSourceLocked(name, version)
}

// Versions snapshots the per-source version table (the heartbeat gossip
// payload).
func (c *Cache) Versions() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.versions))
	for name, v := range c.versions {
		out[name] = v
	}
	return out
}

func (c *Cache) advanceSourceLocked(name string, version uint64) int {
	c.versions[name] = version
	n := 0
	for _, e := range c.entries {
		for _, s := range e.sources {
			if s.Name == name {
				c.removeLocked(e)
				n++
				break
			}
		}
	}
	for _, se := range c.spilled {
		for _, s := range se.sources {
			if s.Name == name {
				c.dropSpillLocked(se, true)
				n++
				break
			}
		}
	}
	c.publishGaugesLocked()
	return n
}

// Stats snapshots the cache state. Per-entry details are sorted by
// descending benefit (the eviction survivorship order); disk-tier entries
// carry Tier "disk".
func (c *Cache) Stats(details bool) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	st := Stats{
		Entries: len(c.entries), Bytes: c.bytes,
		MaxBytes: c.opts.MaxBytes, TTLMs: c.opts.TTL.Milliseconds(),
		Hits: c.hits, Misses: c.misses, Stores: c.stores, Evictions: c.evictions,
		SpillEntries: len(c.spilled), SpillBytes: c.spillBytes,
		SpillMaxBytes: c.opts.SpillMaxBytes,
		Spills:        c.spills, SpillReloads: c.spillReloads,
		SpillDrops: c.spillDrops, SpillErrors: c.spillErrors,
	}
	if details {
		if len(c.versions) > 0 {
			st.SourceVersions = make(map[string]uint64, len(c.versions))
			for name, v := range c.versions {
				st.SourceVersions[name] = v
			}
		}
		for _, e := range c.entries {
			st.Details = append(st.Details, EntryStats{
				Fingerprint: e.fp, Quanta: len(e.quanta), Bytes: e.bytes,
				CostMs: e.costMs, Hits: e.hits, Sources: e.sources,
				StoredAt: e.stored, LastUsedAt: e.lastUse,
			})
		}
		for _, se := range c.spilled {
			st.Details = append(st.Details, EntryStats{
				Fingerprint: se.fp, Quanta: se.quanta, Bytes: se.bytes,
				CostMs: se.costMs, Hits: se.hits, Sources: se.sources,
				StoredAt: se.stored, LastUsedAt: se.lastUse, Tier: "disk",
			})
		}
		sort.Slice(st.Details, func(i, j int) bool {
			bi := st.Details[i].CostMs * float64(st.Details[i].Hits+1) / float64(max64(st.Details[i].Bytes, 1))
			bj := st.Details[j].CostMs * float64(st.Details[j].Hits+1) / float64(max64(st.Details[j].Bytes, 1))
			if bi != bj {
				return bi > bj
			}
			return st.Details[i].Fingerprint < st.Details[j].Fingerprint
		})
	}
	return st
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- single-flight population -------------------------------------------

// Claim registers intent to compute the result for a missing fingerprint.
// The first claimant becomes the leader (leader=true) and must eventually
// Release the claim (after Put, or on failure). Later claimants receive the
// leader's done channel to wait on; once it closes they should re-probe —
// a miss after waiting means the leader failed, and the follower should
// claim again and compute itself (liveness under leader crash).
func (c *Cache) Claim(fp string) (leader bool, done <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[fp]; f != nil {
		return false, f.done
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fp] = f
	return true, f.done
}

// Release ends a leader's claim, waking all waiting followers.
func (c *Cache) Release(fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[fp]; f != nil {
		close(f.done)
		delete(c.flights, fp)
	}
}

// EstimateBytes estimates the in-cache size of a materialized result by
// encoding a bounded sample through the binary quantum codec and
// extrapolating. Un-encodable quanta (platform-native handles etc.) yield
// ok=false: the result cannot be safely retained beyond its producing job.
func EstimateBytes(quanta []any) (int64, bool) {
	const sampleCap = 64
	n := len(quanta)
	if n == 0 {
		return 0, true
	}
	sample := n
	if sample > sampleCap {
		sample = sampleCap
	}
	// Spread the sample across the slice so a heterogeneous tail is seen.
	var total int64
	bufp := core.GetEncodeBuf()
	defer core.PutEncodeBuf(bufp)
	buf := *bufp
	defer func() { *bufp = buf }()
	step := n / sample
	if step < 1 {
		step = 1
	}
	count := 0
	for i := 0; i < n && count < sample; i += step {
		raw, err := core.AppendQuantumBinary(buf[:0], quanta[i])
		if err != nil {
			return 0, false
		}
		buf = raw
		total += int64(len(raw))
		count++
	}
	avg := total / int64(count)
	const perQuantumOverhead = 16 // slice header share + interface boxing
	return (avg + perQuantumOverhead) * int64(n), true
}
