package spark

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/platformtest"
	"rheem/internal/storage/dfs"
)

// fastConf has no simulated latency, so unit tests run instantly; latency
// behaviour has its own dedicated tests.
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

func TestPartitioning(t *testing.T) {
	data := make([]any, 10)
	for i := range data {
		data[i] = i
	}
	r := Partition(data, 4)
	if len(r.Parts) != 4 {
		t.Fatalf("parts = %d", len(r.Parts))
	}
	if r.Count() != 10 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.Collect(); !reflect.DeepEqual(got, data) {
		t.Fatalf("collect = %v", got)
	}
	// Degenerate cases.
	if got := Partition(nil, 3); got.Count() != 0 || len(got.Parts) != 3 {
		t.Fatalf("empty partition: %+v", got)
	}
	if got := Partition(data, 0); len(got.Parts) != 1 {
		t.Fatalf("n=0 partition: %+v", got)
	}
}

func TestGlobalSortIsTotallyOrdered(t *testing.T) {
	d := testDriver(t)
	data := make([]any, 300)
	for i := range data {
		data[i] = int64((i * 31) % 300)
	}
	op := &core.Operator{Kind: core.KindSort}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(data...))
	if len(got) != 300 {
		t.Fatalf("sort lost quanta: %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].(int64) < got[i-1].(int64) {
			t.Fatalf("not sorted at %d: %v < %v", i, got[i], got[i-1])
		}
	}
}

func TestZipWithIDDenseUnique(t *testing.T) {
	d := testDriver(t)
	data := make([]any, 100)
	for i := range data {
		data[i] = i
	}
	op := &core.Operator{Kind: core.KindZipWithID}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(data...))
	seen := map[int64]bool{}
	for _, q := range got {
		id := q.(core.KV).Key.(int64)
		if seen[id] || id < 0 || id >= 100 {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
}

func TestParallelismIsReal(t *testing.T) {
	// Workers must actually run concurrently: with 4 workers, 4 sleeping
	// partitions should take ~1 sleep, not 4.
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindMapPart, UDF: core.UDFs{MapPart: func(part []any) []any {
		time.Sleep(20 * time.Millisecond)
		return part
	}}}
	data := make([]any, 64)
	for i := range data {
		data[i] = i
	}
	start := time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(data...))
	elapsed := time.Since(start)
	if elapsed > 65*time.Millisecond {
		t.Fatalf("4 partitions on 4 workers took %v; engine is not parallel", elapsed)
	}
}

func TestContextStartupPaidOnce(t *testing.T) {
	store, _ := dfs.New(t.TempDir(), dfs.Options{})
	d := NewWithConfig(store, Config{Parallelism: 2, Latency: driverutil.Latency{ContextMs: 40, StageMs: 1, BarrierMs: 0.001}})
	op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q }}}

	// RunOp hands each job's stage no clock, so each charges on a fresh one:
	// the first pays at least the boot.
	start := time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(int64(1)))
	first := time.Since(start)

	start = time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(int64(1)))
	second := time.Since(start)

	if first < 40*time.Millisecond {
		t.Fatalf("first job skipped context startup: %v", first)
	}
	if second > 25*time.Millisecond {
		t.Fatalf("second job re-paid context startup: %v", second)
	}
	// StartupCostMs reflects the boot state for the optimizer.
	if boot, stage := d.StartupCostMs(); boot != 0 || stage != 1 {
		t.Fatalf("post-boot startup cost = %v + %v, want 0 + 1", boot, stage)
	}
}

func TestDFSTextFileSourceParallelBlocks(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	d := NewWithConfig(store, fastConf())
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, "line-"+string(rune('a'+i%26))+"-suffix-padding")
	}
	if err := store.WriteLines("big.txt", lines); err != nil {
		t.Fatal(err)
	}
	op := &core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: "dfs://big.txt"}}
	got := platformtest.RunOp(t, d, op)
	if len(got) != 50 {
		t.Fatalf("read %d lines, want 50", len(got))
	}
	want := map[string]int{}
	for _, l := range lines {
		want[l]++
	}
	have := map[string]int{}
	for _, q := range got {
		have[q.(string)]++
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatal("block-parallel read mangled lines")
	}
}

func TestPageRankStar(t *testing.T) {
	// Star graph: every leaf points to the hub; hub points to leaf 1.
	d := testDriver(t)
	var edges []any
	for v := int64(1); v <= 10; v++ {
		edges = append(edges, core.Edge{Src: v, Dst: 0})
	}
	edges = append(edges, core.Edge{Src: 0, Dst: 1})
	op := &core.Operator{Kind: core.KindPageRank, Params: core.Params{Iterations: 30}}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(edges...))
	ranks := map[int64]float64{}
	var sum float64
	for _, q := range got {
		kv := q.(core.KV)
		ranks[kv.Key.(int64)] = kv.Value.(float64)
		sum += kv.Value.(float64)
	}
	if len(ranks) != 11 {
		t.Fatalf("vertices = %d, want 11", len(ranks))
	}
	// The hub must dominate every other vertex.
	for v, r := range ranks {
		if v != 0 && r >= ranks[0] {
			t.Fatalf("leaf %d rank %f >= hub %f", v, r, ranks[0])
		}
	}
	// Leaf 1 receives the hub's rank and must beat the other leaves.
	if ranks[1] <= ranks[2] {
		t.Fatalf("leaf 1 (%f) should outrank leaf 2 (%f)", ranks[1], ranks[2])
	}
	if sum < 0.5 || sum > 1.5 {
		t.Fatalf("rank mass = %f, want ~1", sum)
	}
}

func TestCacheChannelAtRest(t *testing.T) {
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindCache}
	stage := &core.Stage{ID: 1, Platform: Platform, Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op}}
	in := core.NewInputs()
	in.SetMain(op, 0, platformtest.CollectionChannel(int64(1)))
	outs, _, err := d.Execute(stage, in)
	if err != nil {
		t.Fatal(err)
	}
	ch := outs[op]
	if ch.Desc.Name != "rdd-cached" || !ch.Desc.AtRest || !ch.Desc.Reusable {
		t.Fatalf("cache output channel = %+v", ch.Desc)
	}
}

func TestConversions(t *testing.T) {
	d := testDriver(t)
	convs := map[string]*core.Conversion{}
	for _, cv := range d.Conversions() {
		convs[cv.Name] = cv
	}
	in := platformtest.CollectionChannel(int64(1), int64(2), int64(3))
	rdd, err := convs["spark.parallelize"].Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if rdd.Desc.Name != "rdd" || rdd.Payload.(*RDD).Count() != 3 {
		t.Fatalf("parallelize = %+v", rdd)
	}
	cached, err := convs["spark.cache"].Convert(rdd)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Desc.Name != "rdd-cached" || !cached.Desc.AtRest || cached.Payload != rdd.Payload || rdd.Desc.Name != "rdd" {
		t.Fatalf("cache = %+v", cached)
	}
	back, err := convs["spark.collect"].Convert(rdd)
	if err != nil {
		t.Fatal(err)
	}
	got := platformtest.SortedInts(t, back.Payload.(*core.SliceDataset).Data)
	if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("collect = %v", got)
	}
	// DFS save/load round trip.
	saved, err := convs["spark.dfs-save"].Convert(rdd)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := convs["spark.dfs-load"].Convert(saved)
	if err != nil {
		t.Fatal(err)
	}
	got = platformtest.SortedInts(t, loaded.Payload.(*RDD).Collect())
	if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("dfs round trip = %v", got)
	}
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
	parts := outs[op].Payload.(*RDD).Parts
	if len(parts) < fastConf().Parallelism {
		t.Fatalf("%d partitions of a one-block file, want at least %d", len(parts), fastConf().Parallelism)
	}
	if got := parts.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
}
