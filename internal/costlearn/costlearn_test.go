package costlearn

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/optimizer"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/pregel"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/progressive"
	"rheem/internal/storage/dfs"
)

func TestLogStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "logs.jsonl")
	logs := []StageLog{
		{Platform: "streams", RuntimeMs: 12.5, Ops: []OpLog{{CostKey: "streams.map", InCard: 100, OutCard: 100}}},
		{Platform: "spark", RuntimeMs: 80, Ops: []OpLog{{CostKey: "spark.join", InCard: 5000, OutCard: 200}}},
	}
	if err := AppendLogs(path, logs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := AppendLogs(path, logs[1:]); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLogs(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, logs) {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestLearnRecoversSyntheticModel(t *testing.T) {
	// Generate logs from a known ground-truth model; the GA must fit
	// parameters that predict runtimes much better than the (perturbed)
	// starting table.
	truthPerQ, truthFixed := 0.002, 3.0
	var logs []StageLog
	for _, n := range []int64{100, 1000, 5000, 20000, 50000} {
		logs = append(logs, StageLog{
			Platform:  "streams",
			RuntimeMs: truthPerQ*float64(n) + truthFixed,
			Ops:       []OpLog{{CostKey: "streams.map", InCard: n}},
		})
	}
	base := optimizer.DefaultCostTable(streamsRegistry(t))
	base.Ops["streams.map"] = core.OpCostParams{CPUPerQuantum: 0.0001, FixedOverhead: 50} // far off

	learned, finalLoss, err := Learn(logs, base, Options{Population: 50, Generations: 150, Seed: 7, Smoothing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// The regularized loss has a floor of mean((s/(t+s))^2) even for a
	// perfect fit; with s=0.5 over these runtimes that is ~0.006.
	if finalLoss > 0.03 {
		t.Fatalf("training loss %f too high", finalLoss)
	}
	p := learned.Ops["streams.map"]
	if math.Abs(p.CPUPerQuantum-truthPerQ)/truthPerQ > 0.5 {
		t.Fatalf("learned perQ %v, truth %v", p.CPUPerQuantum, truthPerQ)
	}
	// Prediction accuracy at an unseen size.
	pred := learned.OpTimeMs(core.ExecOpTemplate{Name: "streams.map"}, "streams", 10000)
	truth := truthPerQ*10000 + truthFixed
	if math.Abs(pred-truth)/truth > 0.3 {
		t.Fatalf("prediction %f vs truth %f", pred, truth)
	}
}

func TestLearnSeparatesTwoOperators(t *testing.T) {
	// Stages mixing two operators with very different costs: the learner
	// must attribute cost to the right operator.
	var logs []StageLog
	for _, n := range []int64{500, 2000, 10000, 40000} {
		logs = append(logs,
			StageLog{Platform: "streams", RuntimeMs: 0.01 * float64(n), Ops: []OpLog{
				{CostKey: "op.heavy", InCard: n}, {CostKey: "op.light", InCard: n},
			}},
			StageLog{Platform: "streams", RuntimeMs: 0.0001 * float64(n), Ops: []OpLog{
				{CostKey: "op.light", InCard: n},
			}},
		)
	}
	base := optimizer.DefaultCostTable(streamsRegistry(t))
	learned, _, err := Learn(logs, base, Options{Population: 60, Generations: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	heavy := learned.Ops["op.heavy"].CPUPerQuantum
	light := learned.Ops["op.light"].CPUPerQuantum
	if heavy < 5*light {
		t.Fatalf("attribution failed: heavy=%v light=%v", heavy, light)
	}
}

func TestLearnNoLogs(t *testing.T) {
	if _, _, err := Learn(nil, optimizer.NewCostTable(), Options{}); err == nil {
		t.Fatal("expected error for empty logs")
	}
}

// streamsRegistry is a registry of the streams platform alone.
func streamsRegistry(t *testing.T) *core.Registry {
	t.Helper()
	reg := core.NewRegistry()
	if err := reg.Register(streams.New(nil)); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestGeneralPurposePlatforms(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	for _, d := range []core.Driver{
		streams.New(store), spark.New(store), flink.New(store),
		relstore.New(relstore.Config{}), pregel.New(), graphmem.New(),
	} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := generalPurpose(reg), []string{"flink", "spark", "streams"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("general-purpose platforms %v, want %v", got, want)
	}
}

func newLogEnv(t *testing.T) *core.Registry {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if err := reg.Register(streams.New(store)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spark.NewWithConfig(store, spark.Config{Parallelism: 4, ContextStartupMs: 0.01, JobStartupMs: 0.01, ShuffleLatencyMs: 0.01})); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestGenerateLogsProducesAllTopologies(t *testing.T) {
	reg := newLogEnv(t)
	logs, err := GenerateLogs(reg, GenOptions{Sizes: []int{500}, Platforms: []string{"streams", "spark"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatal("no logs generated")
	}
	platforms := map[string]bool{}
	keys := map[string]bool{}
	for _, l := range logs {
		platforms[l.Platform] = true
		if l.RuntimeMs < 0 {
			t.Fatalf("negative runtime: %+v", l)
		}
		for _, op := range l.Ops {
			keys[op.CostKey] = true
		}
	}
	if !platforms["streams"] || !platforms["spark"] {
		t.Fatalf("platforms = %v", platforms)
	}
	// Logs must cover joins (merge), aggregation and narrow operators
	// (pipeline). spark.map says nothing about loops — the pipeline has a
	// map too; TestIterativeTopologyLogsItsBody holds the loop bodies.
	for _, want := range []string{"streams.join", "streams.reduce-by", "spark.map"} {
		if !keys[want] {
			t.Errorf("cost key %s missing from generated logs (have %v)", want, keys)
		}
	}
}

// TestIterativeTopologyLogsItsBody: the iterative topology alone trains the
// learner on its loop body — one log per round, with the cardinalities the
// body's map saw — besides the source and sink around the loop.
func TestIterativeTopologyLogsItsBody(t *testing.T) {
	plan := buildTopology("iterative", 200, false)
	pin(plan, "streams")
	logs, err := runPlanForLogs(newLogEnv(t), plan)
	if err != nil {
		t.Fatal(err)
	}
	var steps []OpLog
	for _, l := range logs {
		for _, op := range l.Ops {
			if op.CostKey == "streams.map" {
				steps = append(steps, op)
				if l.Platform != "streams" || l.RuntimeMs <= 0 {
					t.Errorf("body stage log = %+v", l)
				}
			}
		}
	}
	want := OpLog{CostKey: "streams.map", InCard: 200, OutCard: 200}
	if !reflect.DeepEqual(steps, []OpLog{want, want, want}) {
		t.Fatalf("3 rounds over 200 quanta logged the body's map as %+v\nall logs: %+v", steps, logs)
	}
}

func TestEndToEndLearnedModelIsUsable(t *testing.T) {
	// Generate real logs, learn, and optimize a plan with the learned table:
	// the result must still be a valid, runnable plan.
	reg := newLogEnv(t)
	logs, err := GenerateLogs(reg, GenOptions{Sizes: []int{300, 3000}, Platforms: []string{"streams", "spark"}})
	if err != nil {
		t.Fatal(err)
	}
	base := optimizer.DefaultCostTable(reg)
	learned, _, err := Learn(logs, base, Options{Population: 30, Generations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	p := core.NewPlan("use-learned")
	src := p.NewOperator(core.KindCollectionSource, "src")
	data := make([]any, 2000)
	for i := range data {
		data[i] = int64(i)
	}
	src.Params.Collection = data
	m := p.NewOperator(core.KindMap, "m")
	m.UDF.Map = func(q any) any { return q.(int64) + 1 }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, sink)

	opts := optimizer.Options{Registry: reg, Costs: learned}
	ep, err := optimizer.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	re := progressive.New(p, ep, opts)
	ex := &executor.Executor{Registry: reg, Checkpoint: re.Checkpoint}
	res, err := ex.Run(ep)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2000 {
		t.Fatalf("output size %d", len(out))
	}
}
