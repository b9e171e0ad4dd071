package optimizer

import (
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

// testEnv builds a registry with all platforms plus a relstore instance.
type testEnv struct {
	reg   *core.Registry
	dfs   *dfs.Store
	store *relstore.Store
	rsd   *relstore.Driver
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rs := relstore.NewStore("pg")
	rsd := relstore.New(relstore.Config{Latency: driverutil.Latency{StageMs: 0.001, Slowdown: 2}}, rs)
	reg := core.NewRegistry()
	for _, d := range []core.Driver{
		streams.New(store),
		spark.NewWithConfig(store, spark.Config{Parallelism: 4, Latency: spark.Paper}),
		flink.NewWithConfig(store, flink.Config{Parallelism: 4, Latency: flink.Paper}),
		rsd,
		graphmem.New(),
	} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	return &testEnv{reg: reg, dfs: store, store: rs, rsd: rsd}
}

func (e *testEnv) opts() Options {
	return Options{Registry: e.reg}
}

// smallPipeline builds source(n) -> map -> filter -> sink.
func smallPipeline(n int) *core.Plan {
	p := core.NewPlan("pipeline")
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = data
	m := p.NewOperator(core.KindMap, "inc")
	m.UDF.Map = func(q any) any { return q.(int64) + 1 }
	f := p.NewOperator(core.KindFilter, "even")
	f.UDF.Pred = func(q any) bool { return q.(int64)%2 == 0 }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, f, sink)
	return p
}

func TestOptimizePicksStreamsForSmallInput(t *testing.T) {
	env := newTestEnv(t)
	ep, err := Optimize(smallPipeline(100), env.opts())
	if err != nil {
		t.Fatal(err)
	}
	platforms := ep.Platforms()
	if len(platforms) != 1 || platforms[0] != "streams" {
		t.Fatalf("small input should run on streams alone, got %v\n%s", platforms, ep)
	}
}

func TestOptimizePicksParallelForHugeInput(t *testing.T) {
	env := newTestEnv(t)
	p := core.NewPlan("huge")
	src := p.NewOperator(core.KindTextFileSource, "lines")
	src.Params.Path = "dfs://huge.txt"
	m := p.NewOperator(core.KindMap, "parse")
	m.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, sink)

	// Pretend the file holds 10M lines via a pinning resolver.
	opts := env.opts()
	opts.Resolve = func(op *core.Operator) (core.CardEstimate, bool) {
		if op == src {
			return core.ExactCard(10_000_000), true
		}
		return core.CardEstimate{}, false
	}
	ep, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range ep.Platforms() {
		if pf == "streams" {
			t.Fatalf("10M quanta should not run single-threaded:\n%s", ep)
		}
	}
}

func TestOptimizeHonoursPlatformPin(t *testing.T) {
	env := newTestEnv(t)
	p := smallPipeline(10)
	for _, op := range p.Operators() {
		op.TargetPlatform = "spark" // force the expensive choice
	}
	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	platforms := ep.Platforms()
	if len(platforms) != 1 || platforms[0] != "spark" {
		t.Fatalf("pin ignored: %v", platforms)
	}
}

func TestOptimizeMovementForMandatoryCrossPlatform(t *testing.T) {
	// Data in relstore, task needs a Map (not executable there): the
	// optimizer must move data out via the conversion graph.
	env := newTestEnv(t)
	tab, err := env.store.CreateTable("points", []relstore.Column{{Name: "x", Type: relstore.TFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tab.Insert(core.Record{float64(i)})
	}

	p := core.NewPlan("mandatory")
	src := p.NewOperator(core.KindTableSource, "points")
	src.Params.Table = "points"
	src.Params.Store = "pg"
	m := p.NewOperator(core.KindMap, "transform")
	m.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m, sink)

	opts := env.opts()
	opts.Resolve = TableStatsResolver(func(store, table string) (int64, bool) {
		if table == "points" {
			return 1000, true
		}
		return 0, false
	})
	ep, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.PlatformOf(src); got != "relstore" {
		t.Fatalf("table scan on %q, want relstore", got)
	}
	if got := ep.PlatformOf(m); got == "relstore" {
		t.Fatal("map cannot run on relstore")
	}
	mv := ep.Movements[src]
	if mv == nil || len(mv.Tree.Edges) == 0 {
		t.Fatalf("no movement planned for relation -> %s:\n%s", ep.PlatformOf(m), ep)
	}
	if mv.Tree.Edges[0].From != "relation" {
		t.Fatalf("movement should start at relation: %v", mv.Tree.Edges[0])
	}
}

func TestPrunedMatchesExhaustive(t *testing.T) {
	// The lossless pruning must find a plan with the same cost as the
	// exhaustive enumeration (the ablation check), on a chain and on the
	// shapes that share a producer.
	env := newTestEnv(t)
	builds := map[string]func(n int) *core.Plan{"pipeline": smallPipeline}
	for shape, build := range sharedShapes {
		builds[shape] = build
	}
	for shape, build := range builds {
		for _, n := range []int{10, 1000, 100000} {
			opts := env.opts()
			pruned, err := Optimize(build(n), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Exhaustive = true
			exhaustive, err := Optimize(build(n), opts)
			if err != nil {
				t.Fatal(err)
			}
			if pg, eg := pruned.Cost.Geomean(), exhaustive.Cost.Geomean(); !sameCost(pg, eg) {
				t.Errorf("%s n=%d: pruned cost %.9g != exhaustive %.9g\npruned:\n%s\nexhaustive:\n%s",
					shape, n, pg, eg, pruned, exhaustive)
			}
		}
	}
}

func TestOptimizeLoopBody(t *testing.T) {
	env := newTestEnv(t)
	p := core.NewPlan("looped")
	init := p.NewOperator(core.KindCollectionSource, "init")
	init.Params.Collection = []any{0.0}
	loop := p.NewOperator(core.KindRepeat, "iterate")
	loop.Params.Iterations = 5
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(init, loop, sink)

	body := core.NewPlan("body")
	in := body.NewOperator(core.KindCollectionSource, "loopvar")
	step := body.NewOperator(core.KindMap, "step")
	step.UDF.Map = func(q any) any { return q.(float64) + 1 }
	body.Connect(in, step, 0)
	body.LoopInput = in
	body.LoopOutput = step
	loop.Body = body

	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	bodyPlan := ep.LoopBodies[loop]
	if bodyPlan == nil {
		t.Fatal("loop body not optimized")
	}
	if got := bodyPlan.PlatformOf(step); got != "streams" {
		t.Fatalf("tiny loop body should run on streams, got %q", got)
	}
	// The loop cost is scaled by the iteration count.
	la := ep.Assignments[loop]
	if la == nil || la.CostEst.Geomean() < bodyPlan.Cost.Geomean()*4 {
		t.Fatalf("loop cost %v not scaled from body cost %v", la.CostEst, bodyPlan.Cost)
	}
}

// pinnedLoop builds a source of 10 quanta into a Repeat of the given rounds
// whose body maps its loop variable on spark, into a sink.
func pinnedLoop(rounds int) (*core.Plan, *core.Operator) {
	p := core.NewPlan("pinned-loop")
	init := p.NewOperator(core.KindCollectionSource, "init")
	init.Params.Collection = make([]any, 10)
	loop := p.NewOperator(core.KindRepeat, "iterate")
	loop.Params.Iterations = rounds
	p.Chain(init, loop, p.NewOperator(core.KindCollectionSink, "out"))
	body := core.NewPlan("body")
	in := body.NewOperator(core.KindCollectionSource, "loopvar")
	step := body.NewOperator(core.KindMap, "step")
	step.UDF.Map = func(q any) any { return q }
	step.TargetPlatform = "spark"
	body.Connect(in, step, 0)
	body.LoopInput, body.LoopOutput = in, step
	loop.Body = body
	return p, loop
}

// parts sums a plan's operators, but not its loops, and its movements.
func parts(ep *core.ExecPlan) float64 {
	var ms float64
	for op, a := range ep.Assignments {
		if !op.Kind.IsLoop() {
			ms += a.CostEst.Geomean()
		}
	}
	for _, mv := range ep.Movements {
		ms += mv.Tree.CostMs
	}
	return ms
}

// TestUnboundedLoopIsPricedAtTenRounds: a do-while loop without a bound is
// priced as if bounded at 10 rounds, and one with a bound at its bound.
func TestUnboundedLoopIsPricedAtTenRounds(t *testing.T) {
	env := newTestEnv(t)
	price := func(bound int) float64 {
		t.Helper()
		p, loop := pinnedLoop(0)
		loop.Kind = core.KindDoWhile
		loop.Params.MaxIterations = bound
		loop.UDF.Cond = func(int, []any) bool { return false }
		ep, err := Optimize(p, env.opts())
		if err != nil {
			t.Fatal(err)
		}
		return ep.Cost.Geomean()
	}
	if got, want := price(0), price(10); math.Abs(got-want) > 1e-9 {
		t.Errorf("unbounded loop priced %v ms, want %v (bounded at 10)", got, want)
	}
	if price(3) >= price(10) {
		t.Errorf("loop bounded at 3 priced %v ms, not below 10 rounds' %v", price(3), price(10))
	}
}

// TestLoopPaysTheContextBootOnce: a loop multiplies only its body's
// per-stage start-up by its rounds; a platform's context boots once per plan.
// The body carries its share of the boot, so that its own enumeration weighs
// the boot as the whole plan does. A 40-round loop whose body is pinned to an
// unbooted spark is priced 150 ms of boot once, 40 bodies of 19.2 ms (12 of
// them spark's stage latency) and 1.5 ms outside the loop: 920.9 ms, where
// pricing the boot in every round gave 6 770.9.
func TestLoopPaysTheContextBootOnce(t *testing.T) {
	env := newTestEnv(t)
	if boot, stage := env.reg.StartupCostMs("spark"); boot != 150 || stage != 12 {
		t.Fatalf("spark quoted %v + %v, want an unbooted 150 + 12", boot, stage)
	}
	for _, rounds := range []int{1, 40} {
		p, loop := pinnedLoop(rounds)
		ep, err := Optimize(p, env.opts())
		if err != nil {
			t.Fatal(err)
		}
		if got := ep.Platforms(); !slices.Equal(got, []string{"spark", "streams"}) {
			t.Fatalf("%d rounds placed on %v, want the body on spark and the rest on streams", rounds, got)
		}
		body := ep.LoopBodies[loop]
		if quote, want := body.Cost.Geomean()-parts(body), 12+150/float64(rounds); math.Abs(quote-want) > 1e-9 {
			t.Errorf("%d rounds: the body is quoted %v ms of start-up, want spark's stage latency and 1/%d of its boot, %v", rounds, quote, rounds, want)
		}
		round := parts(body) + 12
		if boot := ep.Cost.Geomean() - parts(ep) - float64(rounds)*round; math.Abs(boot-150) > 1e-9 {
			t.Errorf("%d rounds of %v ms are quoted %v ms of boot, want spark's 150 once", rounds, round, boot)
		}
		if rounds == 40 && math.Abs(ep.Cost.Geomean()-920.9136) > 1e-3 {
			t.Errorf("40 rounds priced %v ms, want 920.9136", ep.Cost.Geomean())
		}
	}
}

// bootsOnRead is a spark whose context boots, as if another job's first stage
// ran, right after its quote is first read.
type bootsOnRead struct {
	*spark.Driver
	reads *int
}

func (d bootsOnRead) StartupCostMs() (bootMs, stageMs float64) {
	if *d.reads++; *d.reads == 1 {
		return 150, 12
	}
	return 0, 12
}

// TestLoopReadsEachQuoteOnce: one optimization reads a platform's start-up
// quote once, so the boot a loop body carries, the boot its loop takes out
// and the boot the plan prices are one number, even when the platform boots
// while the plan is optimized.
func TestLoopReadsEachQuoteOnce(t *testing.T) {
	reads := 0
	reg := core.NewRegistry()
	for _, d := range []core.Driver{streams.New(nil), bootsOnRead{spark.NewWithConfig(nil, spark.Config{Parallelism: 4}), &reads}} {
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	p, loop := pinnedLoop(40)
	ep, err := Optimize(p, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if reads != 1 {
		t.Errorf("spark's quote was read %d times, want once", reads)
	}
	round := parts(ep.LoopBodies[loop]) + 12
	if boot := ep.Cost.Geomean() - parts(ep) - 40*round; math.Abs(boot-150) > 1e-9 {
		t.Errorf("40 rounds of %v ms are quoted %v ms of boot, want the 150 first read, once", round, boot)
	}
}

// Every operator of an optimized plan carries its own assignment: a loop its
// optimized body, any other operator an alternative of its own kind with at
// least one step, listed under its own name in the explain output.
func TestEveryOperatorCarriesItsOwnAssignment(t *testing.T) {
	env := newTestEnv(t)
	looped := func() *core.Plan {
		p := core.NewPlan("looped")
		init := p.NewOperator(core.KindCollectionSource, "init")
		init.Params.Collection = []any{0.0}
		loop := p.NewOperator(core.KindRepeat, "iterate")
		loop.Params.Iterations = 3
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Chain(init, loop, sink)
		body := core.NewPlan("body")
		in := body.NewOperator(core.KindCollectionSource, "loopvar")
		step := body.NewOperator(core.KindMap, "step")
		step.UDF.Map = func(q any) any { return q.(float64) + 1 }
		body.Connect(in, step, 0)
		body.LoopInput, body.LoopOutput = in, step
		loop.Body = body
		return p
	}
	split, _, _ := pinnedNarrowPlan(5000, "streams", "spark")

	var check func(ep *core.ExecPlan)
	check = func(ep *core.ExecPlan) {
		explain := ep.String()
		for _, op := range ep.Plan.Operators() {
			a := ep.Assignments[op]
			if a == nil {
				t.Errorf("%s: %s has no assignment", ep.Plan.Name, op)
				continue
			}
			if op.Kind.IsLoop() {
				if body := ep.LoopBodies[op]; body == nil {
					t.Errorf("%s: loop %s has no body plan", ep.Plan.Name, op)
				} else {
					check(body)
				}
				continue
			}
			if len(a.Alt.Steps) == 0 || a.Alt.Platform == "" {
				t.Errorf("%s: %s placed on %q with no steps", ep.Plan.Name, op, a.Alt.Platform)
			}
			for _, st := range a.Alt.Steps {
				if st.Kind != op.Kind {
					t.Errorf("%s: %s runs step %s of kind %s", ep.Plan.Name, op, st.Name, st.Kind)
				}
			}
			if !strings.Contains(explain, op.String()) || !strings.Contains(explain, a.Alt.String()) {
				t.Errorf("%s: explain output lacks %s -> %s:\n%s", ep.Plan.Name, op, a.Alt, explain)
			}
		}
	}
	for _, p := range []*core.Plan{smallPipeline(1000), narrowPlan(5000), split, looped()} {
		ep, err := Optimize(p, env.opts())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := ep.Validate(env.reg); err != nil {
			t.Fatalf("%s: Validate: %v", p.Name, err)
		}
		check(ep)
	}
}

// TestOptimizeResumePinsWhatRan: a replan is a whole plan in which every
// executed operator keeps the alternative it ran under — whatever the new
// cardinalities would make the optimizer prefer — observed cardinalities
// replace the estimates, and movement starts at the channel that exists.
func TestOptimizeResumePinsWhatRan(t *testing.T) {
	env := newTestEnv(t)
	p := smallPipeline(10)
	src, m, filter, sink := p.Operators()[0], p.Operators()[1], p.Operators()[2], p.Operators()[3]
	src.TargetPlatform, m.TargetPlatform = "spark", "spark"
	first, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	// The pins come off the prefix: only the progress keeps it where it ran.
	src.TargetPlatform, m.TargetPlatform, filter.TargetPlatform = "", "", "streams"
	opts := env.opts()
	opts.Resume = &Progress{
		Plan:     first,
		Executed: map[*core.Operator]bool{src: true, m: true},
		Observed: map[*core.Operator]int64{m: 7},
	}
	ep, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a := ep.Assignments[m]; a.OutCard.Low != 7 || a.OutCard.High != 7 {
		t.Fatalf("observed card not pinned: %v", a.OutCard)
	}
	for _, op := range []*core.Operator{src, m} {
		if got, want := ep.Assignments[op].Alt.String(), first.Assignments[op].Alt.String(); got != want {
			t.Fatalf("%s ran under %s, replanned to %s", op, want, got)
		}
	}
	if ep.PlatformOf(filter) != "streams" || ep.PlatformOf(sink) != "streams" {
		t.Fatalf("the remainder should finish on streams:\n%s", ep)
	}
	if mv := ep.Movements[m]; mv == nil || mv.Tree.Root != "rdd" || len(mv.Tree.Edges) == 0 {
		t.Fatalf("movement away from the executed prefix is not planned from its rdd:\n%s", ep)
	}
}

func TestOptimizeSelectivityHintChangesEstimates(t *testing.T) {
	env := newTestEnv(t)
	p := smallPipeline(1000)
	filter := p.Operators()[2]
	filter.Selectivity = 0.01
	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.Assignments[filter].OutCard.High; got > 20 {
		t.Fatalf("selectivity hint ignored: out card %d", got)
	}
}

func TestOptimizeErrors(t *testing.T) {
	env := newTestEnv(t)
	if _, err := Optimize(core.NewPlan("empty"), env.opts()); err == nil {
		t.Fatal("empty plan must fail")
	}
	if _, err := Optimize(smallPipeline(1), Options{}); err == nil {
		t.Fatal("missing registry must fail")
	}
	// A plan with an unimplementable pinned op fails with a clear message.
	p := smallPipeline(1)
	p.Operators()[1].TargetPlatform = "nonexistent"
	_, err := Optimize(p, env.opts())
	if err == nil || !strings.Contains(err.Error(), "no platform implements") {
		t.Fatalf("err = %v", err)
	}
}

func TestDFSSourceResolver(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, "this-is-a-sample-line-of-text")
	}
	if err := store.WriteLines("data.txt", lines); err != nil {
		t.Fatal(err)
	}
	resolve := DFSSourceResolver(store)
	op := &core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: "dfs://data.txt"}}
	est, ok := resolve(op)
	if !ok {
		t.Fatal("resolver did not answer")
	}
	if est.Low > 200 || est.High < 200 {
		t.Fatalf("estimate %v does not bracket 200", est)
	}
	// Non-DFS paths and other kinds defer.
	if _, ok := resolve(&core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: "/local.txt"}}); ok {
		t.Fatal("local path should defer")
	}
	if _, ok := resolve(&core.Operator{Kind: core.KindMap}); ok {
		t.Fatal("non-source should defer")
	}
}

func TestEstimateCardsPropagation(t *testing.T) {
	p := smallPipeline(1000)
	cards, err := EstimateCards(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.Operators()
	if cards[ops[0]].Low != 1000 {
		t.Fatalf("source card %v", cards[ops[0]])
	}
	if cards[ops[1]].Low != 1000 { // map preserves
		t.Fatalf("map card %v", cards[ops[1]])
	}
	if cards[ops[2]].Low != 500 { // default filter selectivity 0.5
		t.Fatalf("filter card %v", cards[ops[2]])
	}
}

// sparkMap is the spark map step as its mapping declares it.
var sparkMap = core.ExecOpTemplate{Name: "spark.map", Cost: driverutil.MapCost}

func TestCostTableRoundTrip(t *testing.T) {
	ct := DefaultCostTable(newTestEnv(t).reg)
	ct.Ops["spark.map"] = core.OpCostParams{CPUPerQuantum: 0.001, FixedOverhead: 2}
	path := t.TempDir() + "/costs.json"
	if err := ct.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCostTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ops["spark.map"].CPUPerQuantum != 0.001 {
		t.Fatalf("round trip lost params: %+v", back.Ops["spark.map"])
	}
	clone := back.Clone()
	clone.Ops["spark.map"] = core.OpCostParams{CPUPerQuantum: 9}
	if back.Ops["spark.map"].CPUPerQuantum == 9 {
		t.Fatal("Clone aliases the original")
	}
	// A table saved when platforms still carried "startup_ms" loads (the
	// field is ignored: drivers quote start-up, the table never did) and
	// prices identically.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(raw), `"ms_per_fixed": 6,`, `"ms_per_fixed": 6, "startup_ms": 162,`, 1)
	if legacy == string(raw) {
		t.Fatal("no platform entry to add startup_ms to")
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := LoadCostTable(path)
	if err != nil {
		t.Fatalf("table with startup_ms: %v", err)
	}
	if !reflect.DeepEqual(old, back) || old.OpTimeMs(sparkMap, "spark", 1000) != back.OpTimeMs(sparkMap, "spark", 1000) {
		t.Fatalf("table with startup_ms prices differently: %+v vs %+v", old.Platforms["spark"], back.Platforms["spark"])
	}
}

func TestOpTimeMsMonotonicInCardinality(t *testing.T) {
	ct := DefaultCostTable(newTestEnv(t).reg)
	streamsMap := core.ExecOpTemplate{Name: "streams.map", Cost: driverutil.MapCost}
	small := ct.OpTimeMs(streamsMap, "streams", 100)
	big := ct.OpTimeMs(streamsMap, "streams", 1_000_000)
	if big <= small {
		t.Fatalf("cost not monotone: %v vs %v", small, big)
	}
}

func TestMonetaryObjectiveFlipsChoice(t *testing.T) {
	// A workload big enough that the runtime objective picks a parallel
	// engine must fall back to the cheap single-node engine when optimizing
	// for money (cluster rates dwarf the driver machine's).
	env := newTestEnv(t)
	build := func() *core.Plan {
		p := core.NewPlan("money")
		src := p.NewOperator(core.KindTextFileSource, "big")
		src.Params.Path = "dfs://big.txt"
		m := p.NewOperator(core.KindMap, "work")
		m.UDF.Map = func(q any) any { return q }
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Chain(src, m, sink)
		return p
	}
	opts := env.opts()
	opts.Resolve = func(op *core.Operator) (core.CardEstimate, bool) {
		if op.Kind == core.KindTextFileSource {
			return core.ExactCard(5_000_000), true
		}
		return core.CardEstimate{}, false
	}

	runtimePlan, err := Optimize(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	usedParallel := false
	for _, pf := range runtimePlan.Platforms() {
		if pf == "spark" || pf == "flink" {
			usedParallel = true
		}
	}
	if !usedParallel {
		t.Fatalf("runtime objective should use a parallel engine: %v", runtimePlan.Platforms())
	}

	opts.Objective = ObjectiveMonetary
	moneyPlan, err := Optimize(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range moneyPlan.Platforms() {
		if pf == "spark" || pf == "flink" || pf == "pregel" {
			t.Fatalf("monetary objective should avoid cluster platforms: %v", moneyPlan.Platforms())
		}
	}
}
