package rheem

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/relstore"
)

func fastCtx(t *testing.T) *Context {
	t.Helper()
	ctx, err := NewContext(Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

// TestCloseRemovesOnlyItsTempRoot: Close removes the DFS root a context made
// for itself, never a caller's DFSDir, and a second Close is a no-op.
func TestCloseRemovesOnlyItsTempRoot(t *testing.T) {
	callerDir := t.TempDir()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	own, err := NewContext(Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	caller, err := NewContext(Config{FastSimulation: true, DFSDir: callerDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []*Context{own, caller} {
		if err := ctx.DFS.WriteLines("words.txt", []string{"a b"}); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 1 {
		t.Fatalf("TMPDIR holds %d entries before Close, want the context's DFS root", len(entries))
	}
	for _, ctx := range []*Context{own, caller} {
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := os.ReadDir(tmp); err != nil || len(entries) != 0 {
		t.Errorf("TMPDIR after Close: %d entries, err %v; want empty", len(entries), err)
	}
	if entries, err := os.ReadDir(callerDir); err != nil || len(entries) == 0 {
		t.Errorf("caller's DFSDir after Close: %d entries, err %v; want it kept", len(entries), err)
	}
	for _, ctx := range []*Context{own, caller} {
		if err := ctx.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

func TestQuickstartWordCount(t *testing.T) {
	ctx := fastCtx(t)
	if err := ctx.DFS.WriteLines("words.txt", []string{"may the force", "be with the force"}); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.NewPlan("wordcount").
		ReadTextFile("dfs://words.txt").
		FlatMap("split", func(q any) []any {
			var out []any
			for _, w := range strings.Fields(q.(string)) {
				out = append(out, core.KV{Key: w, Value: int64(1)})
			}
			return out
		}).
		ReduceBy("count",
			func(q any) any { return q.(core.KV).Key },
			func(a, b any) any {
				return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
			}).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, q := range out {
		kv := q.(core.KV)
		counts[kv.Key.(string)] = kv.Value.(int64)
	}
	want := map[string]int64{"may": 1, "the": 2, "force": 2, "be": 1, "with": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v", counts)
	}
}

func TestBuilderBinaryOps(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("binary")
	left := b.LoadCollection("l", []any{int64(1), int64(2), int64(3)})
	right := b.LoadCollection("r", []any{int64(2), int64(3), int64(4)})
	out, err := left.Intersect(right).Sort(nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []any{int64(2), int64(3)}) {
		t.Fatalf("out = %v", out)
	}
}

func TestBuilderJoin(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("join")
	users := b.LoadCollection("users", []any{
		core.Record{int64(1), "ann"}, core.Record{int64(2), "bob"},
	})
	orders := b.LoadCollection("orders", []any{
		core.Record{int64(1), "book"}, core.Record{int64(1), "pen"}, core.Record{int64(2), "mug"},
	})
	joined, err := users.Join(orders,
		func(q any) any { return q.(core.Record)[0] },
		func(q any) any { return q.(core.Record)[0] },
		func(l, r any) any {
			return core.Record{l.(core.Record).String(1), r.(core.Record).String(1)}
		}).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(joined) != 3 {
		t.Fatalf("join rows = %d", len(joined))
	}
}

func TestBuilderSGDLoop(t *testing.T) {
	// The paper's running example end-to-end through the public API.
	ctx := fastCtx(t)
	b := ctx.NewPlan("sgd")
	pts := make([]any, 200)
	for i := range pts {
		pts[i] = float64(i%21) - 10 // mean 0 over 0..20 -> -10..10
	}
	points := b.LoadCollection("points", pts).Cache()
	weights := b.LoadCollection("weights", []any{5.0})

	var w float64
	readW := func(bc core.BroadcastCtx) { w = bc.Get("w")[0].(float64) }
	final := weights.Repeat(30, func(l *LoopBody) {
		wvar := l.Var("w")
		grad := l.Read(points).
			Sample("shuffle-first", 20, 0, 42).
			MapWithCtx("grad", readW, func(q any) any { return w - q.(float64) }).
			WithBroadcast(wvar)
		update := grad.
			Reduce("sum", func(a, b any) any { return a.(float64) + b.(float64) }).
			MapWithCtx("update", readW, func(q any) any { return w - 0.1*q.(float64)/20 }).
			WithBroadcast(wvar)
		l.Yield(update)
	})
	out, err := final.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("weights = %v", out)
	}
	w = out[0].(float64)
	if w < -1.5 || w > 1.5 {
		t.Fatalf("SGD did not converge toward 0: %f", w)
	}
}

func TestBuilderDoWhile(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("halve")
	start := b.LoadCollection("x", []any{100.0})
	final := start.DoWhile(1000,
		func(round int, cur []any) bool { return cur[0].(float64) > 1 },
		func(l *LoopBody) {
			l.Yield(l.Var("x").Map("halve", func(q any) any { return q.(float64) / 2 }))
		})
	out, err := final.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].(float64) != 0.78125 {
		t.Fatalf("out = %v", out)
	}
}

func TestRelStoreIntegration(t *testing.T) {
	ctx := fastCtx(t)
	store := ctx.RelStore("pg")
	tab, err := store.CreateTable("nums", []relstore.Column{{Name: "v", Type: relstore.TFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tab.Insert(core.Record{float64(i)})
	}
	out, err := ctx.NewPlan("table").
		ReadTable("pg", "nums", nil, &core.Predicate{Col: 0, Op: core.PredGe, Value: 95.0}).
		Map("extract", func(q any) any { return q.(core.Record).Float(0) }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("rows = %v", out)
	}
}

func TestExplainShowsChoices(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("explainable")
	b.LoadCollection("data", []any{int64(1)}).
		Map("id", func(q any) any { return q }).
		CollectSink()
	s, err := ctx.Explain(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RheemPlan", "ExecutionPlan", "streams."} {
		if !strings.Contains(s, want) {
			t.Errorf("explain missing %q:\n%s", want, s)
		}
	}
}

func TestExecOptionsSniffer(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("sniffed")
	dq := b.LoadCollection("data", []any{int64(1), int64(2)}).Map("id", func(q any) any { return q })
	sink := dq.CollectSink()
	var seen []any
	res, err := ctx.Execute(b.Plan(), WithSniffer(dq.Op(), func(q any) { seen = append(seen, q) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("sniffed %d", len(seen))
	}
	data, err := res.CollectFrom(sink)
	if err != nil || len(data) != 2 {
		t.Fatalf("collect: %v, %v", data, err)
	}
}

func TestResultMetadata(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("meta")
	b.LoadCollection("data", []any{int64(1)}).Map("id", func(q any) any { return q }).CollectSink()
	res, err := ctx.Execute(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Platforms()) == 0 {
		t.Fatal("no platforms reported")
	}
	if res.Plan() == nil || len(res.Record().Entries) == 0 {
		t.Fatal("missing plan/record")
	}
	if res.Replans() != 0 {
		t.Fatalf("unexpected replans: %d", res.Replans())
	}
}

func TestContextPlatformSubset(t *testing.T) {
	ctx, err := NewContext(Config{Platforms: []string{"streams"}, FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx.NewPlan("only-streams").
		LoadCollection("d", []any{int64(5)}).
		Map("id", func(q any) any { return q }).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if got := ctx.Registry.Mappings.Platforms(); !reflect.DeepEqual(got, []string{"streams"}) {
		t.Fatalf("platforms = %v", got)
	}
}

func TestSortedOutputDeterministic(t *testing.T) {
	ctx := fastCtx(t)
	data := []any{int64(5), int64(3), int64(9), int64(1)}
	out, err := ctx.NewPlan("sorted").LoadCollection("d", data).Sort(nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, len(out))
	for i, q := range out {
		vals[i] = q.(int64)
	}
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Fatalf("not sorted: %v", vals)
	}
}

func TestExecuteCtxCancellation(t *testing.T) {
	ctx := fastCtx(t)
	b := ctx.NewPlan("cancellable")
	d := b.LoadCollection("nums", []any{int64(1), int64(2), int64(3)}).
		Map("id", func(q any) any { return q })
	sink := d.CollectSink()

	// A live context executes normally.
	res, err := ctx.ExecuteCtx(context.Background(), b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if data, err := res.CollectFrom(sink); err != nil || len(data) != 3 {
		t.Fatalf("collect = %v, %v", data, err)
	}

	// A pre-cancelled context aborts at the first stage boundary.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctx.ExecuteCtx(cancelled, b.Plan()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute = %v, want context.Canceled", err)
	}

	// Execute (no context) still works through the same path.
	if _, err := ctx.Execute(b.Plan()); err != nil {
		t.Fatal(err)
	}

	// Telemetry accumulated across the runs: the optimizer counted its
	// optimizations and the executor recorded per-platform stage time.
	if got := ctx.Metrics.Counter("rheem_optimizer_optimizations_total").Value(); got < 2 {
		t.Fatalf("optimizations counter = %v, want >= 2", got)
	}
	if !strings.Contains(ctx.Metrics.Expose(), "rheem_executor_stages_total") {
		t.Fatalf("executor stage metrics missing:\n%s", ctx.Metrics.Expose())
	}
}

// TestMonetaryObjectiveReportsItsOptimum: WithMonetaryObjective reaches the
// optimizer. The plan it returns for a self-join keeps off the cluster
// engines the runtime objective picks, reports the monetary optimum (that of
// the exhaustive enumeration under the same objective), and runs.
func TestMonetaryObjectiveReportsItsOptimum(t *testing.T) {
	ctx := fastCtx(t)
	const n = 100_000
	build := func() (*core.Plan, *core.Operator) {
		data := make([]any, n)
		for i := range data {
			data[i] = int64(i)
		}
		b := ctx.NewPlan("money")
		scoped := b.LoadCollection("src", data).Filter("scope", func(any) bool { return true })
		key := func(q any) any { return q }
		return b.Plan(), scoped.Join(scoped, key, key, func(l, _ any) any { return l }).Count().CollectSink()
	}
	cluster := func(ep *core.ExecPlan) bool {
		return slices.ContainsFunc(ep.Platforms(), func(pf string) bool { return pf == "spark" || pf == "flink" })
	}

	p, sink := build()
	runtime, err := ctx.Optimize(p)
	if err != nil {
		t.Fatal(err)
	}
	money, err := ctx.Optimize(p, WithMonetaryObjective())
	if err != nil {
		t.Fatal(err)
	}
	if !cluster(runtime) || cluster(money) {
		t.Fatalf("runtime objective on %v, monetary on %v: want a cluster engine only for runtime", runtime.Platforms(), money.Platforms())
	}
	exhaustive, err := ctx.Optimize(p, WithMonetaryObjective(), WithExhaustiveEnumeration())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := money.Cost.Geomean(), exhaustive.Cost.Geomean(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("monetary plan reports %.9g, the exhaustive monetary optimum is %.9g\n%s", got, want, money)
	}

	res, err := ctx.Execute(p, WithMonetaryObjective())
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.CollectFrom(sink)
	if err != nil || len(out) != 1 || out[0] != int64(n) {
		t.Fatalf("self-join count = %v (%v), want %d", out, err, n)
	}
	if cluster(res.Plan()) {
		t.Fatalf("the monetary plan ran on %v", res.Platforms())
	}
}
