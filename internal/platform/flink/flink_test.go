package flink

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/platformtest"
	"rheem/internal/storage/dfs"
)

func fastConf() Config {
	return Config{Parallelism: 4}
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
	d := NewWithConfig(store, Config{Parallelism: 2, Latency: driverutil.Latency{ContextMs: 30, StageMs: 1, BarrierMs: 0.001}})
	if boot, stage := d.StartupCostMs(); boot != 30 || stage != 1 {
		t.Fatalf("pre-boot cost = %v + %v, want 30 + 1", boot, stage)
	}
	// RunOp hands the stage no clock, so it charges on a fresh one: its first
	// stage pays at least the boot.
	op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q }}}
	start := time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(int64(1)))
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("context startup not paid: %v", elapsed)
	}
	if boot, stage := d.StartupCostMs(); boot != 0 || stage != 1 {
		t.Fatalf("post-boot cost = %v + %v, want 0 + 1", boot, stage)
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

// TestTextSourceSplitsOneBlock: a DFS file of one block is read as at least
// one input split per worker, not as one partition per block, its lines in
// order.
func TestTextSourceSplitsOneBlock(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := NewWithConfig(store, fastConf())
	var lines []string
	want := make([]any, 200)
	for i := range want {
		lines = append(lines, fmt.Sprintf("line %d", i))
		want[i] = lines[i]
	}
	if err := store.WriteLines("one.txt", lines); err != nil {
		t.Fatal(err)
	}
	if _, blocks, _ := store.Stat("one.txt"); len(blocks) != 1 {
		t.Fatalf("%d blocks, want 1", len(blocks))
	}
	op := &core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: "dfs://one.txt"}}
	stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op}}
	outs, _, err := d.Execute(stage, core.NewInputs())
	if err != nil {
		t.Fatal(err)
	}
	parts := outs[op].Payload.(*DataSet).Parts
	if len(parts) < fastConf().Parallelism {
		t.Fatalf("%d partitions of a one-block file, want at least %d", len(parts), fastConf().Parallelism)
	}
	if got := parts.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}
