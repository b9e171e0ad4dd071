package rescache

import (
	"strings"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

func spillStore(t *testing.T) *dfs.Store {
	t.Helper()
	s, err := dfs.New(t.TempDir(), dfs.Options{Replication: 1, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quantaN builds n distinguishable quanta for fp so reloads can be verified
// byte-for-byte.
func quantaN(fp string, n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = core.KV{Key: fp, Value: int64(i)}
	}
	return out
}

// TestSpillDemoteAndReadmit is the spill tier's core contract: a capacity
// eviction demotes to disk instead of dropping, and a later probe reloads
// the exact quanta back into RAM.
func TestSpillDemoteAndReadmit(t *testing.T) {
	reg := telemetry.NewRegistry()
	// MaxBytes fits one 300-byte entry plus a reloaded spill file (~150 B
	// on disk), so the re-admitted entry stays resident.
	c := testCache(t, Options{
		MaxBytes:      500,
		SpillStore:    spillStore(t),
		SpillMaxBytes: 1 << 20,
		Metrics:       reg,
	})
	qa := quantaN("a", 3)
	if !c.Put("a", qa, 50, 300, nil) {
		t.Fatal("Put(a) rejected")
	}
	// Storing b exceeds MaxBytes; a (lower benefit) is demoted to disk.
	if !c.Put("b", quantaN("b", 2), 500, 300, nil) {
		t.Fatal("Put(b) rejected")
	}
	st := c.Stats(false)
	if st.Entries != 1 || st.SpillEntries != 1 || st.Spills != 1 {
		t.Fatalf("after demotion: %+v", st)
	}
	if st.SpillBytes <= 0 {
		t.Fatalf("spill bytes = %d", st.SpillBytes)
	}

	// Probe a: served from disk, re-admitted to RAM, quanta identical.
	hit, ok := c.Get("a")
	if !ok {
		t.Fatal("spilled entry missed")
	}
	if !hit.Reloaded {
		t.Error("hit not marked Reloaded")
	}
	if len(hit.Quanta) != 3 {
		t.Fatalf("reloaded %d quanta, want 3", len(hit.Quanta))
	}
	for i, q := range hit.Quanta {
		kv, isKV := q.(core.KV)
		if !isKV || kv.Key != "a" || kv.Value != int64(i) {
			t.Fatalf("reloaded quantum %d = %#v", i, q)
		}
	}
	if hit.CostMs != 50 {
		t.Errorf("reloaded cost = %v, want 50 (metadata preserved)", hit.CostMs)
	}
	st = c.Stats(false)
	if st.SpillReloads != 1 {
		t.Errorf("spill reloads = %d, want 1", st.SpillReloads)
	}
	// a is back in RAM: the RAM tier evicted something else (or a) to fit,
	// but the disk copy of a is gone.
	if st.SpillEntries+st.Entries < 2 {
		t.Errorf("entries lost across tiers: %+v", st)
	}
	// A second Get of whichever entry is in RAM must not be Reloaded.
	if hit2, ok := c.Get("a"); ok && hit2.Reloaded {
		t.Error("second probe of a re-admitted entry still marked Reloaded")
	}

	if v := reg.Counter("rheem_cache_spills_total").Value(); v < 1 {
		t.Errorf("rheem_cache_spills_total = %g", v)
	}
	if v := reg.Counter("rheem_cache_spill_reloads_total").Value(); v != 1 {
		t.Errorf("rheem_cache_spill_reloads_total = %g", v)
	}
}

// TestSpillDisabledUnchanged: without a spill store, eviction drops for
// real — prior behavior exactly.
func TestSpillDisabledUnchanged(t *testing.T) {
	c := testCache(t, Options{MaxBytes: 150})
	put(t, c, "a", 1, 50, 100)
	put(t, c, "b", 1, 500, 100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still hittable without a spill tier")
	}
	st := c.Stats(false)
	if st.SpillEntries != 0 || st.Spills != 0 || st.SpillMaxBytes != 0 {
		t.Errorf("spill fields nonzero when disabled: %+v", st)
	}
}

// TestSpillBoundEnforced: the disk tier has its own budget; beyond it the
// lowest-benefit spilled entries are dropped for real.
func TestSpillBoundEnforced(t *testing.T) {
	c := testCache(t, Options{
		MaxBytes:      120,
		SpillStore:    spillStore(t),
		SpillMaxBytes: 100, // roughly one spill file
	})
	// Three successive stores; each store demotes the previous entry.
	c.Put("e1", quantaN("e1", 4), 10, 100, nil)
	c.Put("e2", quantaN("e2", 4), 20, 100, nil)
	c.Put("e3", quantaN("e3", 4), 30, 100, nil)
	st := c.Stats(false)
	if st.SpillBytes > 100 {
		t.Errorf("spill bytes %d exceed bound 100", st.SpillBytes)
	}
	if st.Spills < 2 {
		t.Errorf("spills = %d, want >= 2", st.Spills)
	}
	if st.SpillDrops < 1 {
		t.Errorf("spill drops = %d, want >= 1 (bound enforcement)", st.SpillDrops)
	}
}

// TestSpillSurvivesRestart: a new Cache over the same spill store re-indexes
// the disk tier and serves its entries.
func TestSpillSurvivesRestart(t *testing.T) {
	store := spillStore(t)
	c1 := testCache(t, Options{MaxBytes: 150, SpillStore: store, SpillMaxBytes: 1 << 20})
	c1.Put("old", quantaN("old", 5), 75, 100, []core.SourceRef{{Name: "dfs://in.txt"}})
	c1.Put("new", quantaN("new", 2), 900, 100, nil) // demotes "old"
	if st := c1.Stats(false); st.SpillEntries != 1 {
		t.Fatalf("precondition: %+v", st)
	}

	c2 := testCache(t, Options{MaxBytes: 150, SpillStore: store, SpillMaxBytes: 1 << 20})
	st := c2.Stats(true)
	if st.SpillEntries != 1 {
		t.Fatalf("restarted cache indexed %d spilled entries, want 1", st.SpillEntries)
	}
	var disk *EntryStats
	for i := range st.Details {
		if st.Details[i].Tier == "disk" {
			disk = &st.Details[i]
		}
	}
	if disk == nil {
		t.Fatal("no disk-tier entry in details")
	}
	if disk.Fingerprint != "old" || disk.CostMs != 75 || disk.Quanta != 5 {
		t.Errorf("rebuilt index entry = %+v", disk)
	}
	if len(disk.Sources) != 1 || disk.Sources[0].Name != "dfs://in.txt" {
		t.Errorf("sources not persisted: %+v", disk.Sources)
	}
	hit, ok := c2.Get("old")
	if !ok || !hit.Reloaded || len(hit.Quanta) != 5 {
		t.Fatalf("restarted cache Get(old) = %+v, %v", hit, ok)
	}
}

// TestSpillTTLExpiresBothTiers: TTL runs from the original store time, so
// demotion does not extend an entry's life.
func TestSpillTTLExpiresBothTiers(t *testing.T) {
	now := time.Unix(1000, 0)
	c := testCache(t, Options{
		MaxBytes:      150,
		TTL:           time.Minute,
		SpillStore:    spillStore(t),
		SpillMaxBytes: 1 << 20,
		now:           func() time.Time { return now },
	})
	c.Put("a", quantaN("a", 1), 10, 100, nil)
	c.Put("b", quantaN("b", 1), 900, 100, nil) // demotes a
	if st := c.Stats(false); st.SpillEntries != 1 {
		t.Fatalf("precondition: %+v", st)
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Error("spilled entry hittable after TTL")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("RAM entry hittable after TTL")
	}
	st := c.Stats(false)
	if st.Entries != 0 || st.SpillEntries != 0 {
		t.Errorf("stats after TTL sweep: %+v", st)
	}
	if st.SpillDrops != 1 {
		t.Errorf("spill drops = %d, want 1 (TTL)", st.SpillDrops)
	}
}

// TestSpillDeleteClearInvalidateSpanTiers: management operations reach the
// disk tier too.
func TestSpillDeleteClearInvalidateSpanTiers(t *testing.T) {
	store := spillStore(t)
	mk := func() *Cache {
		c := testCache(t, Options{MaxBytes: 150, SpillStore: store, SpillMaxBytes: 1 << 20})
		c.Put("spilled", quantaN("s", 2), 10, 100, []core.SourceRef{{Name: "dfs://src"}})
		c.Put("ram", quantaN("r", 2), 900, 100, nil)
		if st := c.Stats(false); st.SpillEntries != 1 {
			t.Fatalf("precondition: %+v", st)
		}
		return c
	}

	c := mk()
	if !c.Delete("spilled") {
		t.Error("Delete of a disk-tier entry = false")
	}
	if _, ok := c.Get("spilled"); ok {
		t.Error("deleted disk-tier entry still hittable")
	}
	c.Clear()

	c = mk()
	if n := c.InvalidateSource("dfs://src"); n != 1 {
		t.Errorf("InvalidateSource dropped %d, want 1 (the spilled entry)", n)
	}
	if _, ok := c.Get("spilled"); ok {
		t.Error("invalidated disk-tier entry still hittable")
	}
	c.Clear()

	c = mk()
	if n := c.Clear(); n != 2 {
		t.Errorf("Clear dropped %d, want 2 (both tiers)", n)
	}
	st := c.Stats(false)
	if st.SpillEntries != 0 || st.SpillBytes != 0 {
		t.Errorf("spill tier after Clear: %+v", st)
	}
	// The backing files are gone too: a restart indexes nothing.
	c2 := testCache(t, Options{MaxBytes: 150, SpillStore: store, SpillMaxBytes: 1 << 20})
	if st := c2.Stats(false); st.SpillEntries != 0 {
		t.Errorf("cleared spill files re-indexed: %+v", st)
	}
}

// TestSpillSpans: demotions and reloads appear in the trace tree under the
// span the caller provides.
func TestSpillSpans(t *testing.T) {
	c := testCache(t, Options{MaxBytes: 150, SpillStore: spillStore(t), SpillMaxBytes: 1 << 20})
	tr := trace.New(trace.KindJob, "job")
	root := tr.Root()

	c.put("a", quantaN("a", 2), 10, 100, nil, root)
	c.put("b", quantaN("b", 2), 900, 100, nil, root) // demotes a
	if _, ok := c.get("a", root, true); !ok {        // reloads a
		t.Fatal("reload miss")
	}
	snap := tr.Snapshot()
	spill := snap.Find(trace.KindCacheSpill)
	if spill == nil {
		t.Fatal("no cache-spill span")
	}
	if fp, _ := spill.Attr("fingerprint"); fp != "a" {
		t.Errorf("spill span fingerprint = %q", fp)
	}
	reload := snap.Find(trace.KindCacheReload)
	if reload == nil {
		t.Fatal("no cache-reload span")
	}
	if promoted, _ := reload.Attr("promoted"); promoted != "true" {
		t.Errorf("reload span promoted = %q, want true", promoted)
	}
	if !strings.HasPrefix(reload.Name, "cache-reload:") {
		t.Errorf("reload span name = %q", reload.Name)
	}
}

// TestSpillOversizedEntryServedFromDisk: an entry whose on-disk size exceeds
// the RAM bound alone is served from disk without promotion.
func TestSpillOversizedEntryServedFromDisk(t *testing.T) {
	store := spillStore(t)
	c1 := testCache(t, Options{MaxBytes: 1 << 20, SpillStore: store, SpillMaxBytes: 1 << 20})
	c1.Put("big", quantaN("big", 100), 10, 600_000, nil)
	c1.Put("keep", quantaN("keep", 2), 900, 600_000, nil) // demotes "big"
	if st := c1.Stats(false); st.SpillEntries != 1 {
		t.Fatalf("precondition: %+v", st)
	}

	// Restart with a RAM bound smaller than big's spill file: the indexed
	// entry cannot be promoted but must still serve hits.
	c2 := testCache(t, Options{MaxBytes: 64, SpillStore: store, SpillMaxBytes: 1 << 20})
	if st := c2.Stats(false); st.SpillEntries != 1 {
		t.Fatalf("restart index: %+v", st)
	}
	hit, ok := c2.Get("big")
	if !ok || !hit.Reloaded || len(hit.Quanta) != 100 {
		t.Fatalf("disk-resident Get = %d quanta, reloaded=%v, ok=%v", len(hit.Quanta), hit.Reloaded, ok)
	}
	if st := c2.Stats(false); st.SpillEntries != 1 {
		t.Errorf("oversized entry promoted into an undersized RAM tier: %+v", st)
	}
	// Repeated probes keep serving from disk.
	hit, ok = c2.Get("big")
	if !ok || !hit.Reloaded {
		t.Error("second disk-resident probe missed")
	}
}
