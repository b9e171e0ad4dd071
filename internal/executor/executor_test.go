package executor

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rheem/internal/core"
	"rheem/internal/monitor"
	"rheem/internal/optimizer"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/pregel"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/simclock"
	"rheem/internal/storage/dfs"
)

type env struct {
	reg   *core.Registry
	dfs   *dfs.Store
	store *relstore.Store
	ex    *Executor
}

func newEnv(t *testing.T) *env {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	rs := relstore.NewStore("pg")
	reg := core.NewRegistry()
	drivers := []core.Driver{
		streams.New(store),
		spark.NewWithConfig(store, spark.Config{Parallelism: 4, Latency: driverutil.Latency{ContextMs: 0.01, StageMs: 0.01, BarrierMs: 0.01}}),
		flink.NewWithConfig(store, flink.Config{Parallelism: 4, Latency: driverutil.Latency{ContextMs: 0.01, StageMs: 0.01, BarrierMs: 0.01}}),
		relstore.New(relstore.Config{Latency: driverutil.Latency{StageMs: 0.01, Slowdown: 2}}, rs),
		pregel.NewWithConfig(pregel.Config{Workers: 4, Latency: driverutil.Latency{ContextMs: 0.01, BarrierMs: 0.01}}),
		graphmem.New(),
	}
	for _, d := range drivers {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return &env{reg: reg, dfs: store, store: rs, ex: &Executor{Registry: reg}}
}

func (e *env) optimize(t *testing.T, p *core.Plan) *core.ExecPlan {
	t.Helper()
	ep, err := optimizer.Optimize(p, optimizer.Options{
		Registry: e.reg,
		Resolve: optimizer.ChainResolvers(
			optimizer.DFSSourceResolver(e.dfs),
			optimizer.TableStatsResolver(func(store, table string) (int64, bool) {
				tab, err := e.store.Table(table)
				if err != nil {
					return 0, false
				}
				return int64(tab.RowCount()), true
			}),
		),
	})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return ep
}

func (e *env) runPlan(t *testing.T, p *core.Plan) *Result {
	t.Helper()
	res, err := e.ex.Run(e.optimize(t, p))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func sortedInts(t *testing.T, data []any) []int64 {
	t.Helper()
	out := make([]int64, len(data))
	for i, q := range data {
		v, ok := q.(int64)
		if !ok {
			t.Fatalf("quantum %T", q)
		}
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRunSimplePipeline(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("pipeline")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(10)
	m := p.NewOperator(core.KindMap, "x2")
	m.UDF.Map = func(q any) any { return q.(int64) * 2 }
	f := p.NewOperator(core.KindFilter, "big")
	f.UDF.Pred = func(q any) bool { return q.(int64) >= 10 }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, f, sink)

	res := e.runPlan(t, p)
	data, err := res.FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedInts(t, data); !reflect.DeepEqual(got, []int64{10, 12, 14, 16, 18}) {
		t.Fatalf("got %v", got)
	}
	if len(res.Entries) == 0 {
		t.Fatal("no stage stats recorded")
	}
	if cards := monitor.ObservedCards(res.Entries); cards[f] != 5 {
		t.Fatalf("monitor cards = %v", cards)
	}
}

// TestCancelledContextRunsNoStage: the executor checks its context before each
// wave of stages and before each local stage, so a run whose context is
// already cancelled runs no UDF and returns the context's error.
func TestCancelledContextRunsNoStage(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("cancelled")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(10)
	var calls atomic.Int32
	m := p.NewOperator(core.KindMap, "count")
	m.UDF.Map = func(q any) any { calls.Add(1); return q }
	p.Chain(src, m, p.NewOperator(core.KindCollectionSink, "out"))
	ep := e.optimize(t, p)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ex.RunCtx(ctx, ep); !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("map UDF called %d times under a cancelled context", n)
	}
}

func TestRunWordCount(t *testing.T) {
	e := newEnv(t)
	lines := []string{"the force the", "force awakens the"}
	if err := e.dfs.WriteLines("corpus.txt", lines); err != nil {
		t.Fatal(err)
	}
	p := core.NewPlan("wordcount")
	src := p.NewOperator(core.KindTextFileSource, "lines")
	src.Params.Path = "dfs://corpus.txt"
	split := p.NewOperator(core.KindFlatMap, "split")
	split.UDF.FlatMap = func(q any) []any {
		var out []any
		for _, w := range strings.Fields(q.(string)) {
			out = append(out, core.KV{Key: w, Value: int64(1)})
		}
		return out
	}
	counts := p.NewOperator(core.KindReduceBy, "count")
	counts.UDF.Key = func(q any) any { return q.(core.KV).Key }
	counts.UDF.Reduce = func(a, b any) any {
		return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
	}
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, split, counts, sink)

	data, err := e.runPlan(t, p).FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, q := range data {
		kv := q.(core.KV)
		got[kv.Key.(string)] = kv.Value.(int64)
	}
	want := map[string]int64{"the": 3, "force": 2, "awakens": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestRunForcedCrossPlatform(t *testing.T) {
	// Pin the first half to spark and the second to streams: the executor
	// must move data across platforms via the conversion graph.
	e := newEnv(t)
	p := core.NewPlan("cross")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(100)
	src.TargetPlatform = "spark"
	m1 := p.NewOperator(core.KindMap, "inc")
	m1.UDF.Map = func(q any) any { return q.(int64) + 1 }
	m1.TargetPlatform = "spark"
	m2 := p.NewOperator(core.KindMap, "neg")
	m2.UDF.Map = func(q any) any { return -q.(int64) }
	m2.TargetPlatform = "streams"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "streams"
	p.Chain(src, m1, m2, sink)

	ep := e.optimize(t, p)
	if got := ep.Platforms(); !reflect.DeepEqual(got, []string{"spark", "streams"}) {
		t.Fatalf("platforms = %v", got)
	}
	res, err := e.ex.Run(ep)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := res.FirstSinkData()
	got := sortedInts(t, data)
	if len(got) != 100 || got[0] != -100 || got[99] != -1 {
		t.Fatalf("got %v...%v (%d)", got[0], got[len(got)-1], len(got))
	}
}

func TestRunMandatoryCrossPlatformFromRelstore(t *testing.T) {
	e := newEnv(t)
	tab, err := e.store.CreateTable("vals", []relstore.Column{{Name: "v", Type: relstore.TFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tab.Insert(core.Record{float64(i)})
	}
	p := core.NewPlan("mandatory")
	src := p.NewOperator(core.KindTableSource, "vals")
	src.Params.Table = "vals"
	src.Params.Store = "pg"
	m := p.NewOperator(core.KindMap, "sqrt")
	m.UDF.Map = func(q any) any { return math.Sqrt(q.(core.Record).Float(0)) }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, sink)

	data, err := e.runPlan(t, p).FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 50 {
		t.Fatalf("rows = %d", len(data))
	}
	var sum float64
	for _, q := range data {
		sum += q.(float64)
	}
	if sum < 231 || sum > 233 { // sum of sqrt(0..49) ~ 231.96
		t.Fatalf("sum = %f", sum)
	}
}

func TestRunLoopSGDStyle(t *testing.T) {
	// A miniature SGD: loop carries a 1-element weight; the body samples
	// outer points (OuterRef), computes a gradient against the broadcast
	// weight, and updates.
	e := newEnv(t)
	p := core.NewPlan("sgd")
	points := p.NewOperator(core.KindCollectionSource, "points")
	pts := make([]any, 100)
	for i := range pts {
		pts[i] = float64(i % 10)
	}
	points.Params.Collection = pts
	cache := p.NewOperator(core.KindCache, "cache")
	weights := p.NewOperator(core.KindCollectionSource, "weights")
	weights.Params.Collection = []any{0.0}
	loop := p.NewOperator(core.KindRepeat, "iterate")
	loop.Params.Iterations = 4
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Connect(points, cache, 0)
	p.Connect(weights, loop, 0)
	p.Connect(loop, sink, 0)

	body := core.NewPlan("sgd-body")
	loopIn := body.NewOperator(core.KindCollectionSource, "w")
	sample := body.NewOperator(core.KindSample, "sample")
	sample.Params.SampleSize = 10
	sample.Params.SampleMethod = "reservoir"
	sample.OuterRef = cache
	var w float64
	compute := body.NewOperator(core.KindMap, "grad")
	compute.UDF.Open = func(bc core.BroadcastCtx) {
		ws := bc.Get("w")
		w = ws[0].(float64)
	}
	compute.UDF.Map = func(q any) any { return q.(float64) - w }
	reduce := body.NewOperator(core.KindReduce, "sum")
	reduce.UDF.Reduce = func(a, b any) any { return a.(float64) + b.(float64) }
	update := body.NewOperator(core.KindMap, "update")
	update.UDF.Open = func(bc core.BroadcastCtx) {
		ws := bc.Get("w")
		w = ws[0].(float64)
	}
	update.UDF.Map = func(q any) any { return w + 0.1*q.(float64)/10 }
	body.Chain(sample, compute, reduce, update)
	body.Broadcast(loopIn, compute)
	body.Broadcast(loopIn, update)
	body.LoopInput = loopIn
	body.LoopOutput = update
	loop.Body = body

	res := e.runPlan(t, p)
	data, err := res.FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 {
		t.Fatalf("weights = %v", data)
	}
	final := data[0].(float64)
	// Points average 4.5; the weight moves from 0 toward it.
	if final <= 0 || final > 4.5 {
		t.Fatalf("final weight = %f, expected progress toward 4.5", final)
	}
}

func TestRunDoWhileLoop(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("dowhile")
	init := p.NewOperator(core.KindCollectionSource, "init")
	init.Params.Collection = []any{1.0}
	loop := p.NewOperator(core.KindDoWhile, "double-until")
	loop.Params.MaxIterations = 100
	loop.UDF.Cond = func(rounds int, current []any) bool {
		return current[0].(float64) < 50
	}
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(init, loop, sink)

	body := core.NewPlan("body")
	in := body.NewOperator(core.KindCollectionSource, "v")
	dbl := body.NewOperator(core.KindMap, "double")
	dbl.UDF.Map = func(q any) any { return q.(float64) * 2 }
	body.Connect(in, dbl, 0)
	body.LoopInput = in
	body.LoopOutput = dbl
	loop.Body = body

	data, err := e.runPlan(t, p).FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 || data[0].(float64) != 64 {
		t.Fatalf("got %v, want [64]", data)
	}
}

func TestRunPageRankOnGraphPlatform(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("pagerank")
	src := p.NewOperator(core.KindCollectionSource, "edges")
	var edges []any
	for v := int64(0); v < 20; v++ {
		edges = append(edges, core.Edge{Src: v, Dst: (v + 1) % 20})
		edges = append(edges, core.Edge{Src: v, Dst: 0})
	}
	src.Params.Collection = edges
	pr := p.NewOperator(core.KindPageRank, "pr")
	pr.Params.Iterations = 10
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, pr, sink)

	ep := e.optimize(t, p)
	// A tiny graph must land on one of the graph-capable platforms.
	prPlatform := ep.PlatformOf(pr)
	if prPlatform != "graphmem" && prPlatform != "pregel" && prPlatform != "spark" && prPlatform != "flink" {
		t.Fatalf("pagerank on %q", prPlatform)
	}
	res, err := e.ex.Run(ep)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := res.FirstSinkData()
	if len(data) != 20 {
		t.Fatalf("vertices = %d", len(data))
	}
	best, bestRank := int64(-1), -1.0
	for _, q := range data {
		kv := q.(core.KV)
		if r := kv.Value.(float64); r > bestRank {
			best, bestRank = kv.Key.(int64), r
		}
	}
	if best != 0 {
		t.Fatalf("vertex 0 should dominate, got %d", best)
	}
}

func TestRunMultiSink(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("multisink")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(10)
	odd := p.NewOperator(core.KindFilter, "odd")
	odd.UDF.Pred = func(q any) bool { return q.(int64)%2 == 1 }
	even := p.NewOperator(core.KindFilter, "even")
	even.UDF.Pred = func(q any) bool { return q.(int64)%2 == 0 }
	s1 := p.NewOperator(core.KindCollectionSink, "odds")
	s2 := p.NewOperator(core.KindCollectionSink, "evens")
	p.Connect(src, odd, 0)
	p.Connect(src, even, 0)
	p.Connect(odd, s1, 0)
	p.Connect(even, s2, 0)

	res := e.runPlan(t, p)
	odds, err := res.SinkData(s1)
	if err != nil {
		t.Fatal(err)
	}
	evens, err := res.SinkData(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(odds) != 5 || len(evens) != 5 {
		t.Fatalf("odds=%d evens=%d", len(odds), len(evens))
	}
}

func TestStageExtraction(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("stages")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(5)
	src.TargetPlatform = "spark"
	m1 := p.NewOperator(core.KindMap, "a")
	m1.UDF.Map = func(q any) any { return q }
	m1.TargetPlatform = "spark"
	m2 := p.NewOperator(core.KindMap, "b")
	m2.UDF.Map = func(q any) any { return q }
	m2.TargetPlatform = "streams"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "streams"
	p.Chain(src, m1, m2, sink)

	ep := e.optimize(t, p)
	stages, err := BuildStages(ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 2 {
		t.Fatalf("stages = %d: %v", len(stages), stages)
	}
	// Same-platform contiguous ops share a stage.
	if !stages[0].Contains(src) || !stages[0].Contains(m1) {
		t.Fatalf("spark ops split: %v", stages[0])
	}
	// m1 is terminal (its output crosses to the streams stage).
	found := false
	for _, op := range stages[0].TerminalOuts {
		if op == m1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("m1 not terminal: %v", stages[0].TerminalOuts)
	}
}

func TestBroadcastCrossesStages(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("bcast")
	small := p.NewOperator(core.KindCollectionSource, "factors")
	small.Params.Collection = []any{int64(3)}
	big := p.NewOperator(core.KindCollectionSource, "data")
	big.Params.Collection = ints(10)
	var factor int64
	m := p.NewOperator(core.KindMap, "scale")
	m.UDF.Open = func(bc core.BroadcastCtx) { factor = bc.Get("factors")[0].(int64) }
	m.UDF.Map = func(q any) any { return q.(int64) * factor }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Connect(big, m, 0)
	p.Broadcast(small, m)
	p.Connect(m, sink, 0)

	res := e.runPlan(t, p)
	data, _ := res.FirstSinkData()
	got := sortedInts(t, data)
	if got[0] != 0 || got[9] != 27 {
		t.Fatalf("got %v", got)
	}
	// The broadcast producer must not share a stage with its consumer.
	stages, _ := BuildStages(e.optimize(t, p), nil)
	for _, s := range stages {
		if s.Contains(small) && s.Contains(m) {
			t.Fatal("broadcast producer and consumer share a stage")
		}
	}
}

func TestCheckpointReplans(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("replan")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(100)
	src.TargetPlatform = "spark" // force >1 stage so a checkpoint fires
	f := p.NewOperator(core.KindFilter, "f")
	f.UDF.Pred = func(q any) bool { return true }
	f.TargetPlatform = "streams"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "streams"
	p.Chain(src, f, sink)

	calls := 0
	ep := e.optimize(t, p)
	e.ex.Checkpoint = func(_ context.Context, record []*core.StageStats, executed map[*core.Operator]bool) (*core.ExecPlan, error) {
		calls++
		if calls == 1 {
			// Re-optimize with the progress so far pinned.
			return optimizer.Optimize(p, optimizer.Options{Registry: e.reg, Resume: &optimizer.Progress{Plan: ep, Executed: executed, Observed: monitor.ObservedCards(record)}})
		}
		return nil, nil
	}
	res, err := e.ex.Run(ep)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("checkpoint never invoked")
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d", res.Replans)
	}
	data, _ := res.FirstSinkData()
	if len(data) != 100 {
		t.Fatalf("replanned run lost data: %d", len(data))
	}
}

func TestSniffersExploreQuanta(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("sniff")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(10)
	m := p.NewOperator(core.KindMap, "id")
	m.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, sink)

	var seen []any
	e.ex.Sniffers = map[*core.Operator]func(any){
		m: func(q any) { seen = append(seen, q) },
	}
	e.runPlan(t, p)
	if len(seen) != 10 {
		t.Fatalf("sniffed %d quanta", len(seen))
	}
}

func TestRunTextFileSink(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("textsink")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{"b", "a"}
	sink := p.NewOperator(core.KindTextFileSink, "out")
	sink.Params.Path = "dfs://out.txt"
	p.Chain(src, sink)

	e.runPlan(t, p)
	lines, err := e.dfs.ReadLines("out.txt")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	if !reflect.DeepEqual(lines, []string{"a", "b"}) {
		t.Fatalf("lines = %v", lines)
	}
}

// TestDiamondStageDAG covers a diamond-shaped stage graph: one producer
// stage feeding two consumer stages that rejoin through a Union. Cache-scan
// substitution and multi-sink plans create exactly this shape, but earlier
// tests only asserted linear and fan-out stage topologies.
func TestDiamondStageDAG(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("diamond")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(5)
	src.TargetPlatform = "spark"
	left := p.NewOperator(core.KindMap, "x10")
	left.UDF.Map = func(q any) any { return q.(int64) * 10 }
	left.TargetPlatform = "streams"
	right := p.NewOperator(core.KindMap, "plus100")
	right.UDF.Map = func(q any) any { return q.(int64) + 100 }
	right.TargetPlatform = "flink"
	union := p.NewOperator(core.KindUnion, "merge")
	union.TargetPlatform = "spark"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "spark"
	p.Connect(src, left, 0)
	p.Connect(src, right, 0)
	p.Connect(left, union, 0)
	p.Connect(right, union, 1)
	p.Connect(union, sink, 0)

	ep := e.optimize(t, p)
	stages, err := BuildStages(ep, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four stages: spark source, streams branch, flink branch, spark rejoin.
	// The source must not be merged into the rejoin stage even though both
	// run on spark — they are not contiguous.
	if len(stages) != 4 {
		t.Fatalf("stages = %d: %v", len(stages), stages)
	}
	stageOf := func(op *core.Operator) *core.Stage {
		for _, s := range stages {
			if s.Contains(op) {
				return s
			}
		}
		t.Fatalf("operator %s not in any stage", op.Label)
		return nil
	}
	sSrc, sLeft, sRight, sJoin := stageOf(src), stageOf(left), stageOf(right), stageOf(union)
	if sSrc == sJoin {
		t.Error("source and rejoin share a stage despite non-contiguity")
	}
	if sLeft == sRight {
		t.Error("the two branches share a stage")
	}
	if stageOf(sink) != sJoin {
		t.Error("union and sink split across stages")
	}
	// Every operator belongs to exactly one stage (the shared producer must
	// not be duplicated into each consumer's stage).
	counts := map[*core.Operator]int{}
	for _, s := range stages {
		for _, op := range s.Ops {
			counts[op]++
		}
	}
	for op, n := range counts {
		if n != 1 {
			t.Errorf("operator %s appears in %d stages", op.Label, n)
		}
	}
	// Dependency edges form the diamond: both branches depend on the source
	// stage, the rejoin depends on both branches (and not directly vice versa).
	deps := stageDeps(ep, stages)
	if !deps[sLeft][sSrc] || !deps[sRight][sSrc] {
		t.Errorf("branch stages do not depend on the source stage: %v", deps)
	}
	if !deps[sJoin][sLeft] || !deps[sJoin][sRight] {
		t.Errorf("rejoin stage does not depend on both branches: %v", deps)
	}
	if deps[sSrc][sJoin] || deps[sLeft][sJoin] || deps[sRight][sJoin] {
		t.Errorf("dependency edges point the wrong way: %v", deps)
	}

	res, err := e.ex.Run(ep)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := res.FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 10, 20, 30, 40, 100, 101, 102, 103, 104}
	if got := sortedInts(t, data); !reflect.DeepEqual(got, want) {
		t.Fatalf("diamond result = %v, want %v", got, want)
	}
	if len(res.Entries) != 4 {
		t.Errorf("stage stats = %d, want 4", len(res.Entries))
	}
}

// TestMissingMovementIsAnErrorNotASearch: the executor moves data the way the
// plan says and in no other way. A cross-platform plan whose movement entry is
// taken out by hand is rejected by Validate, and run anyway it fails at the
// fetch, naming the producer, the channel it was produced in and the channels
// wanted — the conversion graph is never consulted for a way around.
func TestMissingMovementIsAnErrorNotASearch(t *testing.T) {
	e := newEnv(t)
	p := core.NewPlan("no-movement")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = ints(5)
	src.TargetPlatform = "spark"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "flink"
	p.Chain(src, sink)

	ep := e.optimize(t, p)
	if ep.Movements[src] == nil {
		t.Fatalf("no movement planned from spark to flink:\n%s", ep)
	}
	delete(ep.Movements, src)
	if err := ep.Validate(e.reg); err == nil || !strings.Contains(err.Error(), "no movement is planned") {
		t.Fatalf("Validate accepted a plan without the movement: %v", err)
	}
	_, err := e.ex.Run(ep)
	if err == nil {
		t.Fatal("the executor found its own way from rdd to dataset")
	}
	for _, want := range []string{src.String(), "[rdd]", "[dataset]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// clockSpy is the streams driver at its paper latency, noting the clock each
// stage it executes is handed.
type clockSpy struct {
	*streams.Driver
	mu     sync.Mutex
	clocks map[*simclock.Clock]int
}

func (d *clockSpy) Execute(s *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	d.mu.Lock()
	d.clocks[in.Clock]++
	d.mu.Unlock()
	return d.Driver.Execute(s, in)
}

// TestOneClockPerRun: every stage of a run, the rounds of a 40-round loop
// included, charges on the run's one clock, and two runs at once hold two
// clocks.
func TestOneClockPerRun(t *testing.T) {
	spy := &clockSpy{Driver: &streams.Driver{Boot: driverutil.Boot{Latency: streams.Paper}}, clocks: map[*simclock.Clock]int{}}
	reg := core.NewRegistry()
	if err := reg.Register(spy); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Registry: reg}
	plan := func() *core.ExecPlan {
		p := core.NewPlan("count-up")
		init := p.NewOperator(core.KindCollectionSource, "init")
		init.Params.Collection = []any{0.0}
		loop := p.NewOperator(core.KindRepeat, "rounds")
		loop.Params.Iterations = 40
		p.Chain(init, loop, p.NewOperator(core.KindCollectionSink, "out"))
		body := core.NewPlan("body")
		in := body.NewOperator(core.KindCollectionSource, "v")
		inc := body.NewOperator(core.KindMap, "inc")
		inc.UDF.Map = func(q any) any { return q.(float64) + 1 }
		body.Connect(in, inc, 0)
		body.LoopInput, body.LoopOutput = in, inc
		loop.Body = body
		ep, err := optimizer.Optimize(p, optimizer.Options{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}

	res, err := ex.Run(plan())
	if err != nil {
		t.Fatal(err)
	}
	if data, err := res.FirstSinkData(); err != nil || len(data) != 1 || data[0] != 40.0 {
		t.Fatalf("got %v (%v), want [40]", data, err)
	}
	stages := len(res.Entries)
	if stages < 40 || len(spy.clocks) != 1 || spy.clocks[nil] != 0 {
		t.Fatalf("%d stages ran on clocks %v, want every one on one clock", stages, spy.clocks)
	}
	for _, n := range spy.clocks {
		if n != stages {
			t.Fatalf("the run's clock charged %d of its %d stages", n, stages)
		}
	}

	clear(spy.clocks)
	plans := []*core.ExecPlan{plan(), plan()}
	var wg sync.WaitGroup
	for _, ep := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ex.Run(ep); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(spy.clocks) != 2 || spy.clocks[nil] != 0 {
		t.Fatalf("two runs at once charged on clocks %v, want two", spy.clocks)
	}
	for _, n := range spy.clocks {
		if n != stages {
			t.Fatalf("two runs at once charged %v stages per clock, want %d each", spy.clocks, stages)
		}
	}
}
