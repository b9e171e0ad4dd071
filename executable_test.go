package rheem

// The plan the optimizer priced is the plan the executor runs. The executor
// plans nothing — it stages what has not run, reads each producer's output
// through the movement tree the optimizer planned for it, and a progressive
// replan is a whole plan that keeps what ran — so "every plan Optimize returns
// executes" is an invariant these tests hold over random plans, random platform
// pins, loop boundaries and replans.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"rheem/internal/core"
	"rheem/internal/monitor"
	"rheem/internal/trace"
)

// randomLoopPlan builds source → map → optional cache, and a Repeat seeded
// with one quantum whose body reads the outer operator, filters it, unions it
// with the loop variable and reduces: movement crosses the loop boundary in
// every direction (outer reference in, loop variable in, loop output out).
func randomLoopPlan(ctx *Context, rng *rand.Rand, id int) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan(fmt.Sprintf("loop-%d", id))
	data := make([]any, 50+rng.Intn(200))
	for i := range data {
		data[i] = int64(i % 17)
	}
	outer := b.LoadCollection("points", data).Map("inc", func(q any) any { return q.(int64) + 1 })
	if rng.Intn(2) == 0 {
		outer = outer.Cache()
	}
	k := int64(2 + rng.Intn(4))
	final := b.LoadCollection("seed", []any{int64(0)}).Repeat(2+rng.Intn(3), func(l *LoopBody) {
		picked := l.Read(outer).Filter("mod", func(q any) bool { return q.(int64)%k == 0 })
		l.Yield(picked.Union(l.Var("acc")).Reduce("sum", func(a, b any) any { return a.(int64) + b.(int64) }))
	})
	return b.Plan(), final.CollectSink()
}

// pinRandomly pins each operator, loop bodies included, to one of the three
// general engines with probability 2/3.
func pinRandomly(p *core.Plan, rng *rand.Rand) {
	engines := []string{"spark", "flink", "streams"}
	for _, op := range p.Operators() {
		if op.Body != nil {
			pinRandomly(op.Body, rng)
		} else if pick := rng.Intn(len(engines) + len(engines)/2 + 1); pick < len(engines) {
			op.TargetPlatform = engines[pick]
		}
	}
}

func pinAll(p *core.Plan, platform string) {
	for _, op := range p.Operators() {
		if op.Body != nil {
			pinAll(op.Body, platform)
		} else {
			op.TargetPlatform = platform
		}
	}
}

func TestEveryOptimizedPlanRuns(t *testing.T) {
	ctx := fastCtx(t)
	builders := map[string]func(*Context, *rand.Rand, int) (*core.Plan, *core.Operator){
		"random": randomPlan,
		"loop":   randomLoopPlan,
	}
	for shape, build := range builders {
		rng := rand.New(rand.NewSource(25))
		for i := 0; i < 300; i++ {
			seed := rng.Int63()
			plan, sink := build(ctx, rand.New(rand.NewSource(seed)), i)
			ref, refSink := build(ctx, rand.New(rand.NewSource(seed)), i)
			pinRandomly(plan, rand.New(rand.NewSource(seed)))
			pinAll(ref, "streams")

			ep, err := ctx.Optimize(plan)
			if err != nil {
				t.Fatalf("%s plan %d: optimize: %v\n%s", shape, i, err, plan)
			}
			if err := ep.Validate(ctx.Registry); err != nil {
				t.Fatalf("%s plan %d: %v\n%s", shape, i, err, ep)
			}
			res, err := ctx.Execute(plan)
			if err != nil {
				t.Fatalf("%s plan %d: the optimized plan does not run: %v\n%s", shape, i, err, ep)
			}
			want, err := ctx.Execute(ref)
			if err != nil {
				t.Fatalf("%s plan %d reference: %v", shape, i, err)
			}
			got, _ := res.CollectFrom(sink)
			exp, _ := want.CollectFrom(refSink)
			if g, w := fmt.Sprint(canonical(t, got)), fmt.Sprint(canonical(t, exp)); g != w {
				t.Fatalf("%s plan %d on %v: sink differs from the all-streams reference:\n got %s\nwant %s\n%s", shape, i, res.Platforms(), g, w, ep)
			}
		}
	}
}

// TestReplanRunsNothingTwice: a filter hinted 10,000 times too selective
// triggers one replan at the first checkpoint. The executed prefix stays as it
// ran — its UDF is never called again, at any input size — and the reported
// plan names, for every stage, the platform that stage ran on.
func TestReplanRunsNothingTwice(t *testing.T) {
	for _, n := range []int{5_000, 20_000, 60_000, 200_000} {
		ctx := fastCtx(t)
		data := make([]any, n)
		for i := range data {
			data[i] = int64(i)
		}
		var calls atomic.Int64
		b := ctx.NewPlan(fmt.Sprintf("replan-%d", n))
		keep := b.LoadCollection("src", data).Filter("keep", func(any) bool { calls.Add(1); return true }).WithSelectivity(0.0001)
		sink := keep.Map("half", func(q any) any { return q.(int64) / 2 }).Distinct().CollectSink()

		res, err := ctx.Execute(b.Plan())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Replans() != 1 {
			t.Fatalf("n=%d: %d replans, want 1", n, res.Replans())
		}
		if got := calls.Load(); got != int64(n) {
			t.Errorf("n=%d: the executed filter's predicate ran %d times, want %d", n, got, n)
		}
		if out, _ := res.CollectFrom(sink); len(out) != (n+1)/2 {
			t.Errorf("n=%d: %d distinct values, want %d", n, len(out), (n+1)/2)
		}
		ran := map[*core.Operator]bool{}
		for _, st := range res.inner.Entries {
			for _, op := range st.Stage.Ops {
				if ran[op] {
					t.Errorf("n=%d: %s ran in two stages", n, op)
				}
				ran[op] = true
				if planned := res.Plan().PlatformOf(op); planned != st.Stage.Platform {
					t.Errorf("n=%d: %s ran on %s, the reported plan says %s", n, op, st.Stage.Platform, planned)
				}
			}
		}
		if len(ran) != len(b.Plan().Operators()) {
			t.Errorf("n=%d: %d of %d operators ran", n, len(ran), len(b.Plan().Operators()))
		}
	}
}

// plannedConversions counts the conversions a run of ep performs: every edge
// of every movement tree once, a loop body's once per round.
func plannedConversions(ep *core.ExecPlan) int {
	n := 0
	for _, mv := range ep.Movements {
		n += len(mv.Tree.Edges)
	}
	for loop, body := range ep.LoopBodies {
		n += loop.Params.Iterations * plannedConversions(body)
	}
	return n
}

// TestConversionsAreThePlannedOnes: with no replan in the way, the
// channel-conversion spans of a run are exactly the edges of the plan's
// movement trees — none searched for at run time, none planned and skipped.
func TestConversionsAreThePlannedOnes(t *testing.T) {
	ctx := fastCtx(t)
	builders := []func(*Context, *rand.Rand, int) (*core.Plan, *core.Operator){randomPlan, randomLoopPlan}
	rng := rand.New(rand.NewSource(7))
	total := 0
	for i := 0; i < 60; i++ {
		seed := rng.Int63()
		plan, _ := builders[i%2](ctx, rand.New(rand.NewSource(seed)), i)
		pinRandomly(plan, rand.New(rand.NewSource(seed)))
		tr := trace.New(trace.KindJob, plan.Name)
		res, err := ctx.ExecuteCtx(trace.NewContext(context.Background(), tr.Root()), plan, WithProgressive(false))
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		tr.Root().End()
		got, want := len(tr.Snapshot().FindAll(trace.KindConversion)), plannedConversions(res.Plan())
		if got != want {
			t.Fatalf("plan %d: %d channel-conversion spans, the plan's movement trees have %d edges\n%s", i, got, want, res.Plan())
		}
		total += want
	}
	if total == 0 {
		t.Fatal("no plan moved any data: the test exercises nothing")
	}
}

// nestedLoopPlan is a Repeat in a Repeat whose inner body reads the top-level
// base dataset: through the middle body's placeholder of it, or — skipLevel —
// directly, which no plan level can serve.
func nestedLoopPlan(ctx *Context, trailingMap, skipLevel bool) *DataQuanta {
	b := ctx.NewPlan("nested")
	nine := make([]any, 9)
	for i := range nine {
		nine[i] = int64(i + 1)
	}
	base := b.LoadCollection("base", nine)
	return b.LoadCollection("seed", []any{int64(1)}).Repeat(2, func(mid *LoopBody) {
		visible := mid.Read(base)
		if skipLevel {
			visible = base
		}
		inner := mid.Var("w").Repeat(2, func(in *LoopBody) {
			in.Yield(in.Var("w").Union(in.Read(visible)).Distinct())
		})
		if trailingMap {
			inner = inner.Map("id", func(q any) any { return q })
		}
		mid.Yield(inner)
	})
}

func TestNestedLoops(t *testing.T) {
	// A body that ends in a loop is as feasible as one with a map behind it.
	for _, trailingMap := range []bool{false, true} {
		out, err := nestedLoopPlan(fastCtx(t), trailingMap, false).Collect()
		if err != nil || len(out) != 9 {
			t.Fatalf("trailing map %v: %d rows, %v; want the 9 distinct values", trailingMap, len(out), err)
		}
	}
	_, err := nestedLoopPlan(fastCtx(t), false, true).Collect()
	if err == nil || !strings.Contains(err.Error(), "cannot skip a nesting level") {
		t.Fatalf("a reference two plans up: %v; want core.Plan.Validate to say it skips a level", err)
	}
}

// stagesCounted sums rheem_executor_stages_total over its platforms.
func stagesCounted(ctx *Context) (n float64) {
	for _, fam := range ctx.Metrics.Snapshot().Families {
		if fam.Name == "rheem_executor_stages_total" {
			for _, series := range fam.Series {
				n += series.Value
			}
		}
	}
	return n
}

// executions adds to want how often a run of ep executes each of its
// operators: once at the top level, once per round in a Repeat's body, nested
// bodies included. A loop operator itself runs in the executor, on no driver.
func executions(ep *core.ExecPlan, times int, want map[*core.Operator]int) {
	for _, op := range ep.Plan.Operators() {
		if body := ep.LoopBodies[op]; body != nil {
			executions(body, times*op.Params.Iterations, want)
		} else {
			want[op] = times
		}
	}
}

// TestRunRecordIsComplete: every stage execution of a run — top-level, loop
// body, nested body, before and after a replan — is one entry of the run
// record, and the stage spans, the stage counter, the profile and the monitor
// summary are the same list read five ways.
func TestRunRecordIsComplete(t *testing.T) {
	ctx := fastCtx(t)
	check := func(name string, plan *core.Plan, wantReplans int, options ...ExecOption) {
		t.Helper()
		tr := trace.New(trace.KindJob, name)
		counted := stagesCounted(ctx)
		res, err := ctx.ExecuteCtx(trace.NewContext(context.Background(), tr.Root()), plan, options...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, plan)
		}
		tr.Root().End()
		if res.Replans() != wantReplans {
			t.Fatalf("%s: %d replans, want %d", name, res.Replans(), wantReplans)
		}
		record, prof, snap := res.Record().Entries, res.Profile(), monitor.Summarize(res.Record().Entries)

		spans := 0
		for _, sp := range tr.Snapshot().FindAll(trace.KindStage) {
			if _, ok := sp.Attr("platform"); ok { // a loop's pseudo-stage has none
				spans++
			}
		}
		delta := int(stagesCounted(ctx) - counted)
		if n := len(record); n == 0 || spans != n || delta != n || len(prof.Stages) != n || len(snap.Stages) != n {
			t.Fatalf("%s: %d record entries, %d stage spans with a platform, stage counter +%d, %d profile stages, %d summary stages\n%s",
				name, n, spans, delta, len(prof.Stages), len(snap.Stages), res.Plan())
		}

		want, got := map[*core.Operator]int{}, map[*core.Operator]int{}
		executions(res.Plan(), 1, want)
		var quantaOut int64
		for i, st := range record {
			var cards, summarized int64
			for op, os := range st.Ops {
				got[op]++
				cards += os.OutCard
			}
			for _, o := range snap.Stages[i].Ops {
				summarized += o.OutCard
			}
			if len(snap.Stages[i].Ops) != len(st.Ops) || summarized != cards {
				t.Errorf("%s: %s: the summary holds %d operators and %d quanta, the record %d and %d", name, st.Stage, len(snap.Stages[i].Ops), summarized, len(st.Ops), cards)
			}
			if (st.Loop != nil) != (st.Stage.ExecPlan != res.Plan()) && wantReplans == 0 {
				t.Errorf("%s: %s ran under loop %v, which its plan contradicts", name, st.Stage, st.Loop)
			}
			for _, op := range st.Stage.TerminalOuts {
				quantaOut += st.Ops[op].OutCard
			}
		}
		for op, n := range want {
			if got[op] != n {
				t.Errorf("%s: %s was observed %d times over %d executions", name, op, got[op], n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d operators observed, the executed plans hold %d", name, len(got), len(want))
		}
		if prof.QuantaOut != quantaOut {
			t.Errorf("%s: the profile reports %d quanta out, the record %d", name, prof.QuantaOut, quantaOut)
		}
	}

	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 40; i++ {
		seed := rng.Int63()
		build, shape := randomPlan, "random"
		if i%2 == 1 {
			build, shape = randomLoopPlan, "loop"
		}
		plan, _ := build(ctx, rand.New(rand.NewSource(seed)), i)
		pinRandomly(plan, rand.New(rand.NewSource(seed)))
		check(fmt.Sprintf("%s-%d", shape, i), plan, 0, WithProgressive(false))
	}

	// A Repeat of five rounds over a one-stage body: source, loop and sink
	// stages are two entries (the loop's is none) and the body's five.
	b := ctx.NewPlan("five-rounds")
	b.LoadCollection("seed", []any{int64(1)}).Repeat(5, func(l *LoopBody) {
		l.Yield(l.Var("x").Map("double", func(q any) any { return q.(int64) * 2 }))
	}).CollectSink()
	pinAll(b.Plan(), "streams")
	res, err := ctx.Execute(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Record().Entries); n != 7 || len(res.Profile().Stages) != 7 {
		t.Errorf("five rounds of a one-stage body: %d record entries, %d profile stages, want 7", n, len(res.Profile().Stages))
	}
	check("five-rounds", b.Plan(), 0, WithResultCache(false))

	for _, trailingMap := range []bool{false, true} {
		nested := nestedLoopPlan(ctx, trailingMap, false)
		nested.CollectSink()
		check(fmt.Sprintf("nested-%v", trailingMap), nested.b.Plan(), 0)
	}

	// A lying selectivity forces one replan: the executed prefix is in the
	// record once, under the plan it ran.
	data := make([]any, 20_000)
	for i := range data {
		data[i] = int64(i)
	}
	b = ctx.NewPlan("replanned")
	b.LoadCollection("src", data).Filter("keep", func(any) bool { return true }).WithSelectivity(0.0001).
		Map("half", func(q any) any { return q.(int64) / 2 }).Distinct().CollectSink()
	check("replanned", b.Plan(), 1)
}

// TestLogCollectionIncludesLoopBodies: WithLogCollection hands the cost learner
// a loop body's stages once per round, not only the stages around the loop.
func TestLogCollectionIncludesLoopBodies(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("logged-loop")
	b.LoadCollection("seed", []any{int64(1), int64(2)}).Repeat(3, func(l *LoopBody) {
		l.Yield(l.Var("x").Map("double", func(q any) any { return q.(int64) * 2 }))
	}).CollectSink()
	pinAll(b.Plan(), "streams")
	var logs []StageLog
	if _, err := ctx.Execute(b.Plan(), WithLogCollection(&logs)); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, l := range logs {
		for _, op := range l.Ops {
			if op.CostKey == "streams.map" && op.InCard == 2 && op.OutCard == 2 {
				rounds++
			}
		}
	}
	if rounds != 3 {
		t.Fatalf("the body's map was logged %d times over 3 rounds: %+v", rounds, logs)
	}
}
