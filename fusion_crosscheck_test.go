package rheem

// Differential testing for the chain kernels. The compiled kernel is the
// only way the narrow operators and the declarative reduce-by execute, so
// the reference is not a second engine path but platformtest.Interpret, a
// plain row-at-a-time evaluation of the same plan: every sink must collect
// the reference's multiset and every operator must report the reference's
// output cardinality — across random plan shapes, on the optimizer's free
// choice and pinned to every engine.

import (
	"fmt"
	"math/rand"
	"testing"

	"rheem/internal/core"
	"rheem/internal/monitor"
	"rheem/internal/platform/platformtest"
)

// checkAgainstInterpreter builds the plan on a fresh context, pins it to
// platform ("" leaves the choice to the optimizer), executes it and holds
// the result to the reference interpreter: every sink's multiset and every
// operator's observed cardinality. It returns the result for further checks.
func checkAgainstInterpreter(t *testing.T, build func(*Context) (*core.Plan, *core.Operator), platform, tag string) *Result {
	t.Helper()
	ctx := fastCtx(t)
	plan, _ := build(ctx)
	for _, op := range plan.Operators() {
		op.TargetPlatform = platform
	}
	tables := func(store, table string) ([]any, error) {
		tab, err := ctx.RelStore(store).Table(table)
		if err != nil {
			return nil, err
		}
		recs, err := tab.Scan(nil, nil, 1)
		rows := make([]any, len(recs))
		for i, r := range recs {
			rows[i] = r
		}
		return rows, err
	}
	want, err := platformtest.Interpret(plan, tables)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	res, err := ctx.Execute(plan)
	if err != nil {
		t.Fatalf("%s on %q: %v\n%s", tag, platform, err, plan)
	}
	for _, sink := range plan.Sinks() {
		got, err := res.CollectFrom(sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := platformtest.SameMultiset(got, want[sink]); err != nil {
			t.Fatalf("%s on %v: sink %s: %v\n%s", tag, res.Platforms(), sink, err, plan)
		}
	}
	cards := monitor.ObservedCards(res.Record().Entries)
	for _, op := range plan.Operators() {
		if n, ok := cards[op]; !ok || n != int64(len(want[op])) {
			t.Fatalf("%s on %v: %s reported cardinality %d (reported=%v), reference %d\n%s",
				tag, res.Platforms(), op, n, ok, len(want[op]), plan)
		}
	}
	return res
}

func TestCrossCheckFusedAgainstUnfused(t *testing.T) {
	// Three plan families per seed: opaque-UDF DAGs (crosscheck_test.go),
	// declarative chains the column loops run, and declarative chains ending
	// in a grouped aggregation (columnar_crosscheck_test.go).
	families := []struct {
		name  string
		build func(*Context, *rand.Rand, int) (*core.Plan, *core.Operator)
	}{{"udf", randomPlan}, {"decl", randomDeclPlan}, {"agg", randomAggPlan}}
	// Three seed streams of 15 plans per family.
	for _, source := range []int64{909, 1109, 3307} {
		rng := rand.New(rand.NewSource(source))
		for i := 0; i < 15; i++ {
			seed := rng.Int63()
			for _, fam := range families {
				for _, platform := range []string{"", "streams", "spark", "flink"} {
					checkAgainstInterpreter(t, func(ctx *Context) (*core.Plan, *core.Operator) {
						return fam.build(ctx, rand.New(rand.NewSource(seed)), i)
					}, platform, fmt.Sprintf("%s plan %d/%d", fam.name, source, i))
				}
			}
		}
	}
}

// fig9Pipeline is the shape of the paper's Figure-9 single-platform tasks:
// a long narrow prefix (flatmap/map/filter) into one aggregation.
func fig9Pipeline(ctx *Context) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan("fig9")
	data := make([]any, 3000)
	for i := range data {
		data[i] = fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%29)
	}
	counts := b.LoadCollection("lines", data).
		FlatMap("split", func(q any) []any {
			var out []any
			word := ""
			for _, r := range q.(string) + " " {
				if r == ' ' {
					if word != "" {
						out = append(out, word)
					}
					word = ""
					continue
				}
				word += string(r)
			}
			return out
		}).
		Filter("drop-w0", func(q any) bool { return q.(string) != "w0" }).
		Map("tag", func(q any) any { return core.Record{q, int64(1)} }).
		ReduceBy("count",
			func(q any) any { return q.(core.Record)[0] },
			func(a, b any) any {
				ar, br := a.(core.Record), b.(core.Record)
				return core.Record{ar[0], ar[1].(int64) + br[1].(int64)}
			})
	sink := counts.CollectSink()
	return b.Plan(), sink
}

func TestFusedFig9TaskEquivalentOnEveryEngine(t *testing.T) {
	for _, platform := range []string{"", "streams", "spark", "flink"} {
		name := platform
		if name == "" {
			name = "optimizer-choice"
		}
		t.Run(name, func(t *testing.T) {
			checkAgainstInterpreter(t, fig9Pipeline, platform, "fig9")
		})
	}
}
