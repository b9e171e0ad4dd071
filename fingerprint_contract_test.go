package rheem

import (
	"fmt"
	"testing"

	"rheem/internal/core"
	"rheem/internal/rescache"
	"rheem/latin"
)

// colKey is a UDF factory: every closure it returns has the same code
// symbol, so only the name a closure was registered under tells two apart.
func colKey(i int) func(any) any {
	return func(q any) any { return q.(core.Record)[i] }
}

// TestFactoryClosuresDoNotShareFingerprint: two key extractors made by one
// factory and registered under different names are different UDFs to the
// result cache. Grouping 5000 records {i%2, i%5} by column 0 and then by
// column 1 must give 2 and then 5 groups; with the key's registered name
// missing from the fingerprint the second job was a cache hit on the first
// and returned 2.
func TestFactoryClosuresDoNotShareFingerprint(t *testing.T) {
	ctx, err := NewContext(Config{
		FastSimulation: true,
		ResultCache:    rescache.New(rescache.Options{MaxBytes: 16 << 20}),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := latin.NewRegistry()
	for i := 0; i < 2; i++ {
		reg.RegisterKey(fmt.Sprintf("k%d", i), colKey(i))
	}
	reg.RegisterReduce("first", func(a, b any) any { return a })
	data := make([]any, 5000)
	for i := range data {
		data[i] = core.Record{int64(i % 2), int64(i % 5)}
	}
	reg.RegisterCollection("recs", data)

	var hashes []string
	for i, want := range []int{2, 5} {
		compiled, err := latin.Compile(fmt.Sprintf(`recs = load collection recs;
r = reduceby recs key k%d using first;
collect r;`, i), reg)
		if err != nil {
			t.Fatal(err)
		}
		sink := compiled.Sinks["r"]
		info := core.FingerprintPlan(compiled.Plan, core.FingerprintOptions{})[sink]
		if info == nil {
			t.Fatalf("job %d: sink not fingerprinted", i)
		}
		hashes = append(hashes, info.Hash)
		res, err := ctx.Execute(compiled.Plan)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.CollectFrom(sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Errorf("reduceby key k%d: %d groups, want %d", i, len(rows), want)
		}
	}
	if hashes[0] == hashes[1] {
		t.Errorf("key k0 and key k1 share sink fingerprint %s", hashes[0])
	}
}

// TestReRegisteredCollectionIsAMiss: a registered collection's identity is
// its content as of the registration. The same job over the same
// registration is a cache hit; after the name is registered again with
// different content the job misses and returns the new answer, never the
// result cached for the old content.
func TestReRegisteredCollectionIsAMiss(t *testing.T) {
	cache := rescache.New(rescache.Options{MaxBytes: 16 << 20})
	ctx, err := NewContext(Config{FastSimulation: true, ResultCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	reg := latin.NewRegistry()
	reg.RegisterKey("k0", colKey(0))
	reg.RegisterReduce("first", func(a, b any) any { return a })
	records := func(groups int) []any {
		data := make([]any, 5000)
		for i := range data {
			data[i] = core.Record{int64(i % groups), int64(i)}
		}
		return data
	}
	groups := func() int {
		t.Helper()
		compiled, err := latin.Compile(`recs = load collection recs;
r = reduceby recs key k0 using first;
collect r;`, reg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctx.Execute(compiled.Plan)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.CollectFrom(compiled.Sinks["r"])
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}

	reg.RegisterCollection("recs", records(3))
	if n := groups(); n != 3 {
		t.Fatalf("first job: %d groups, want 3", n)
	}
	if n := groups(); n != 3 {
		t.Fatalf("second job: %d groups, want 3", n)
	}
	hits := cache.Stats(false).Hits
	if hits == 0 {
		t.Fatal("the second job over one registration was not a cache hit")
	}
	reg.RegisterCollection("recs", records(8))
	if n := groups(); n != 8 {
		t.Errorf("job after re-registration: %d groups, want 8", n)
	}
	if got := cache.Stats(false).Hits; got != hits {
		t.Errorf("job after re-registration hit the cache (%d -> %d hits)", hits, got)
	}
}
