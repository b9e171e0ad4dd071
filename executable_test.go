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
		for _, st := range res.inner.Stats {
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
