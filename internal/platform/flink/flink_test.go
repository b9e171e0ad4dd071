package flink

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
	"rheem/internal/storage/dfs"
)

func fastConf() Config {
	return Config{Parallelism: 4, ContextStartupMs: 0.001, JobStartupMs: 0.001, ExchangeLatencyMs: 0.001}
}

func testDriver(t *testing.T) *Driver {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithConfig(store, fastConf())
}

func TestConformance(t *testing.T) {
	platformtest.Run(t, testDriver(t))
}

func TestPipelineIsSinglePass(t *testing.T) {
	// A chain of narrow operators must invoke each UDF exactly once per
	// quantum even though the flow is lazy (no re-execution per stage hop).
	d := testDriver(t)
	var maps, filters int64
	var mu sync.Mutex
	src := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: mkInts(100)}}
	m := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any {
		mu.Lock()
		maps++
		mu.Unlock()
		return q
	}}}
	f := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool {
		mu.Lock()
		filters++
		mu.Unlock()
		return true
	}}}
	got := platformtest.RunChain(t, d, []*core.Operator{src, m, f})
	if len(got) != 100 {
		t.Fatalf("pipeline output = %d", len(got))
	}
	if maps != 100 || filters != 100 {
		t.Fatalf("UDF invocations: map=%d filter=%d, want 100 each", maps, filters)
	}
}

func TestSortMergedGlobally(t *testing.T) {
	d := testDriver(t)
	data := make([]any, 200)
	for i := range data {
		data[i] = int64((i * 37) % 200)
	}
	op := &core.Operator{Kind: core.KindSort}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(data...))
	for i := 1; i < len(got); i++ {
		if got[i].(int64) < got[i-1].(int64) {
			t.Fatalf("not globally sorted at %d", i)
		}
	}
}

func TestZipWithIDUniqueDense(t *testing.T) {
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindZipWithID}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(mkInts(57)...))
	seen := map[int64]bool{}
	for _, q := range got {
		id := q.(core.KV).Key.(int64)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 57 {
		t.Fatalf("ids = %d", len(seen))
	}
}

func TestStartupCosts(t *testing.T) {
	store, _ := dfs.New(t.TempDir(), dfs.Options{})
	d := NewWithConfig(store, Config{Parallelism: 2, ContextStartupMs: 30, JobStartupMs: 1, ExchangeLatencyMs: 0.001})
	if c := d.StartupCostMs(); c != 31 {
		t.Fatalf("pre-boot cost = %v", c)
	}
	op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q }}}
	start := time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(int64(1)))
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("context startup not paid: %v", elapsed)
	}
	if c := d.StartupCostMs(); c != 1 {
		t.Fatalf("post-boot cost = %v", c)
	}
}

func TestPageRankChain(t *testing.T) {
	d := testDriver(t)
	// Ring of 5 vertices: perfectly symmetric, all ranks equal.
	var edges []any
	for v := int64(0); v < 5; v++ {
		edges = append(edges, core.Edge{Src: v, Dst: (v + 1) % 5})
	}
	op := &core.Operator{Kind: core.KindPageRank, Params: core.Params{Iterations: 20}}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(edges...))
	if len(got) != 5 {
		t.Fatalf("vertices = %d", len(got))
	}
	for _, q := range got {
		r := q.(core.KV).Value.(float64)
		if r < 0.19 || r > 0.21 {
			t.Fatalf("ring rank %f, want ~0.2", r)
		}
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	d := testDriver(t)
	convs := map[string]*core.Conversion{}
	for _, cv := range d.Conversions() {
		convs[cv.Name] = cv
	}
	in := platformtest.CollectionChannel(int64(5), int64(6))
	ds, err := convs["flink.from-collection"].Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Desc.Name != "dataset" || ds.Payload.(*DataSet).Count() != 2 {
		t.Fatalf("from-collection = %+v", ds)
	}
	back, err := convs["flink.collect"].Convert(ds)
	if err != nil {
		t.Fatal(err)
	}
	got := platformtest.SortedInts(t, back.Payload.(*core.SliceDataset).Data)
	if !reflect.DeepEqual(got, []int64{5, 6}) {
		t.Fatalf("collect = %v", got)
	}
}

func mkInts(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}
