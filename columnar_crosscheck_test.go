package rheem

// Differential testing for the columnar data plane: plans in the declarative
// forms the vectorized column kernels run must match the reference
// interpreter (checkAgainstInterpreter: sink multisets and per-operator
// cardinalities) on every engine, and the fixed pipelines must additionally
// show that the column path really ran. The random generators here feed
// TestCrossCheckFusedAgainstUnfused.

import (
	"fmt"
	"math/rand"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/relstore"
)

// randomDeclPlan builds a random chain of declarative operators — the forms
// the vectorized kernels recognize — over either Record or bare-scalar
// sources, with occasional opaque UDFs mixed in to exercise the partial
// vectorization (column prefix + row tail) and fallback paths.
func randomDeclPlan(ctx *Context, rng *rand.Rand, id int) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan(fmt.Sprintf("columnar-crosscheck-%d", id))

	scalars := rng.Intn(3) == 0
	n := 200 + rng.Intn(800)
	data := make([]any, n)
	for i := range data {
		if scalars {
			data[i] = int64(rng.Intn(40) - 20)
		} else {
			data[i] = core.Record{
				int64(rng.Intn(40) - 20),
				float64(rng.Intn(20)) / 2,
				fmt.Sprintf("g%d", rng.Intn(5)),
			}
		}
	}
	d := b.LoadCollection("src", data)
	// isStr tracks which current columns hold strings, so generated
	// predicates and numeric maps always stay well-typed through Projects.
	isStr := []bool{false, false, true}

	steps := 3 + rng.Intn(6)
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(5); {
		case op == 0 && scalars:
			d = d.FilterWhere("fw", core.Predicate{
				Col: core.WholeQuantum, Op: core.PredOp(rng.Intn(5)), Value: int64(rng.Intn(10) - 5)})
		case op == 0:
			col := rng.Intn(len(isStr))
			var val any = int64(rng.Intn(10) - 5)
			if isStr[col] {
				val = fmt.Sprintf("g%d", rng.Intn(5))
			}
			d = d.FilterWhere("fw", core.Predicate{Col: col, Op: core.PredOp(rng.Intn(5)), Value: val})
		case op == 1 && scalars:
			d = d.MapExpr("mx", core.MapExpr{
				Col: core.WholeQuantum, Op: core.NumOp(rng.Intn(3)),
				Operand: []any{int64(rng.Intn(4) + 1), 0.5}[rng.Intn(2)]})
		case op == 1:
			col := rng.Intn(len(isStr))
			if isStr[col] {
				col = 0 // column 0 is numeric in every layout this generator builds
			}
			if isStr[col] {
				continue
			}
			d = d.MapExpr("mx", core.MapExpr{
				Col: col, Op: core.NumOp(rng.Intn(3)),
				Operand: []any{int64(rng.Intn(4) + 1), 0.5}[rng.Intn(2)]})
		case op == 2 && !scalars:
			nw := 1 + rng.Intn(len(isStr))
			cols := make([]int, nw)
			next := make([]bool, nw)
			for j := range cols {
				cols[j] = rng.Intn(len(isStr))
				next[j] = isStr[cols[j]]
			}
			// Keep column 0 numeric so later MapExprs have a safe target.
			cols[0] = 0
			next[0] = isStr[0]
			d = d.Project(cols...)
			isStr = next
		case op == 3:
			// Opaque UDF: ends the vectorizable prefix mid-chain.
			d = d.Map("opaque", func(q any) any { return q })
		case op == 4 && scalars:
			d = d.Filter("even", func(q any) bool {
				v, ok := q.(int64)
				return !ok || v%2 == 0
			})
		default:
			d = d.Map("noop", func(q any) any { return q })
		}
	}
	sink := d.CollectSink()
	return b.Plan(), sink
}

// columnBatches is the number of partition batches the run's vectorized
// kernels executed column-wise, from the stage statistics the executor
// records (the source of the columnar-batch span attrs and of
// rheem_columnar_batches_total).
func columnBatches(res *Result) (n int64) {
	for _, st := range res.inner.Entries {
		for _, v := range st.Vectorized {
			n += v.Batches
		}
	}
	return n
}

// checkColumnPathEngaged holds a fixed declarative pipeline to the reference
// interpreter and fails if no batch ran column-wise.
func checkColumnPathEngaged(t *testing.T, build func(*Context) (*core.Plan, *core.Operator), platform, tag string) {
	t.Helper()
	res := checkAgainstInterpreter(t, build, platform, tag)
	if columnBatches(res) == 0 {
		t.Fatalf("%s on %v: the column path never engaged", tag, res.Platforms())
	}
}

// declPipeline is a fixed fully-declarative chain — filter, numeric map,
// projection, then an aggregation to force movement.
func declPipeline(ctx *Context) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan("decl")
	data := make([]any, 5000)
	for i := range data {
		data[i] = core.Record{int64(i % 37), float64(i%11) / 2, fmt.Sprintf("g%d", i%5)}
	}
	agg := b.LoadCollection("src", data).
		FilterWhere("keep", core.Predicate{Col: 0, Op: core.PredGt, Value: int64(5)}).
		MapExpr("scale", core.MapExpr{Col: 1, Op: core.NumMul, Operand: int64(3)}).
		MapExpr("shift", core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(100)}).
		Project(2, 0, 1).
		ReduceBy("sum-by-group",
			func(q any) any { return q.(core.Record)[0] },
			func(a, b any) any {
				ar, br := a.(core.Record), b.(core.Record)
				return core.Record{ar[0], ar[1].(int64) + br[1].(int64), ar[2].(float64) + br[2].(float64)}
			})
	return b.Plan(), agg.CollectSink()
}

func TestCrossCheckColumnarEveryEngine(t *testing.T) {
	for _, platform := range []string{"", "streams", "spark", "flink"} {
		name := platform
		if name == "" {
			name = "optimizer-choice"
		}
		t.Run(name, func(t *testing.T) {
			checkColumnPathEngaged(t, declPipeline, platform, "decl")
		})
	}
}

// randomAggPlan builds a random declarative prefix chain ending in a
// declarative ReduceByExpr, so the vectorized aggregation kernel (and its
// two-phase partial exchange on the parallel engines) is exercised against
// the reference's single-phase row-at-a-time fold over the same rows.
func randomAggPlan(ctx *Context, rng *rand.Rand, id int) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan(fmt.Sprintf("columnar-agg-crosscheck-%d", id))
	n := 300 + rng.Intn(1500)
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{
			int64(rng.Intn(40) - 20),
			float64(rng.Intn(20)) / 2,
			fmt.Sprintf("g%d", rng.Intn(7)),
			int64(rng.Intn(6)),
		}
	}
	d := b.LoadCollection("src", data)
	steps := rng.Intn(4)
	for s := 0; s < steps; s++ {
		switch rng.Intn(4) {
		case 0:
			d = d.FilterWhere("fw", core.Predicate{
				Col: 0, Op: core.PredOp(rng.Intn(5)), Value: int64(rng.Intn(10) - 5)})
		case 1:
			d = d.MapExpr("mx", core.MapExpr{
				Col: rng.Intn(2), Op: core.NumOp(rng.Intn(3)),
				Operand: []any{int64(rng.Intn(4) + 1), 0.5}[rng.Intn(2)]})
		case 2:
			d = d.FilterWhere("fs", core.Predicate{
				Col: 2, Op: []core.PredOp{core.PredEq, core.PredPrefix}[rng.Intn(2)],
				Value: fmt.Sprintf("g%d", rng.Intn(7))})
		default:
			// Opaque UDF mid-chain: the agg must still absorb via the row tail.
			d = d.Map("opaque", func(q any) any { return q })
		}
	}
	groups := [][]int{{2}, {3}, {2, 3}, {3, 2}}[rng.Intn(4)]
	var aggs []core.AggSpec
	for _, a := range []core.AggSpec{
		{Op: core.AggSum, Col: 0},
		{Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggMin, Col: 0},
		{Op: core.AggMax, Col: 1},
		{Op: core.AggAvg, Col: 1},
	} {
		if rng.Intn(2) == 0 {
			aggs = append(aggs, a)
		}
	}
	if len(aggs) == 0 {
		aggs = []core.AggSpec{{Op: core.AggSum, Col: 0}}
	}
	d = d.ReduceByExpr("agg", core.ReduceExpr{GroupCols: groups, Aggs: aggs})
	sink := d.CollectSink()
	return b.Plan(), sink
}

// aggPipeline is a fixed declarative chain ending in a grouped aggregation:
// filter → numeric map → reduce-by-expr with every aggregate kind over a
// string group column (dictionary path included).
func aggPipeline(ctx *Context) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan("decl-agg")
	data := make([]any, 6000)
	for i := range data {
		data[i] = core.Record{int64(i % 37), float64(i%11) / 2, fmt.Sprintf("g%d", i%9)}
	}
	d := b.LoadCollection("src", data).
		FilterWhere("keep", core.Predicate{Col: 0, Op: core.PredGt, Value: int64(3)}).
		MapExpr("scale", core.MapExpr{Col: 1, Op: core.NumMul, Operand: int64(2)}).
		ReduceByExpr("agg", core.ReduceExpr{
			GroupCols: []int{2},
			Aggs: []core.AggSpec{
				{Op: core.AggSum, Col: 0},
				{Op: core.AggCount, Col: core.WholeQuantum},
				{Op: core.AggMin, Col: 0},
				{Op: core.AggMax, Col: 1},
				{Op: core.AggAvg, Col: 1},
			},
		})
	return b.Plan(), d.CollectSink()
}

func TestCrossCheckColumnarAggEveryEngine(t *testing.T) {
	for _, platform := range []string{"", "streams", "spark", "flink"} {
		name := platform
		if name == "" {
			name = "optimizer-choice"
		}
		t.Run(name, func(t *testing.T) {
			checkColumnPathEngaged(t, aggPipeline, platform, "decl-agg")
		})
	}
}

// TestDictColumnsCountedOnce: rheem_columnar_dict_columns_total follows the
// process-wide count of built dictionary columns job after job. Every job gets
// a fresh executor, so a watermark kept there re-counted all earlier jobs'
// columns: four one-column jobs read 1, 3, 6, 10.
func TestDictColumnsCountedOnce(t *testing.T) {
	ctx := fastCtx(t)
	run := func() {
		t.Helper()
		plan, _ := aggPipeline(ctx)
		if _, err := ctx.Execute(plan, WithResultCache(false)); err != nil {
			t.Fatal(err)
		}
	}
	run() // takes whatever earlier tests of this process left uncounted
	counter := ctx.Metrics.Counter("rheem_columnar_dict_columns_total")
	counted, built := counter.Value(), core.DictColumnsBuilt()
	for job := 1; job <= 4; job++ {
		run()
		gotCounted, gotBuilt := counter.Value()-counted, core.DictColumnsBuilt()-built
		if gotBuilt < int64(job) {
			t.Fatalf("job %d: %d dictionary columns built so far; the pipeline should build one per job", job, gotBuilt)
		}
		if gotCounted != float64(gotBuilt) {
			t.Fatalf("job %d: the counter moved by %v, the process built %d dictionary columns", job, gotCounted, gotBuilt)
		}
	}
}

func TestCrossCheckColumnarAggRelStore(t *testing.T) {
	build := func(ctx *Context) (*core.Plan, *core.Operator) {
		store := ctx.RelStore("pg")
		tab, err := store.CreateTable("events", []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "score", Type: relstore.TFloat},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			tab.Insert(core.Record{int64(i % 53), float64(i%17) / 2})
		}
		d := ctx.NewPlan("rel-agg").
			ReadTable("pg", "events", nil, &core.Predicate{Col: 0, Op: core.PredGe, Value: int64(5)}).
			FilterWhere("hi", core.Predicate{Col: 1, Op: core.PredGt, Value: 0.5}).
			ReduceByExpr("agg", core.ReduceExpr{
				GroupCols: []int{0},
				Aggs: []core.AggSpec{
					{Op: core.AggSum, Col: 1},
					{Op: core.AggCount, Col: core.WholeQuantum},
				},
			})
		sink := d.CollectSink()
		return d.b.Plan(), sink
	}
	checkColumnPathEngaged(t, build, "", "relstore-agg")
}

func TestCrossCheckColumnarRelStore(t *testing.T) {
	build := func(ctx *Context) (*core.Plan, *core.Operator) {
		store := ctx.RelStore("pg")
		tab, err := store.CreateTable("events", []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "score", Type: relstore.TFloat},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			tab.Insert(core.Record{int64(i % 101), float64(i%13) / 2})
		}
		d := ctx.NewPlan("rel-decl").
			ReadTable("pg", "events", nil, &core.Predicate{Col: 0, Op: core.PredGe, Value: int64(10)}).
			FilterWhere("hi", core.Predicate{Col: 1, Op: core.PredGt, Value: 1.0}).
			MapExpr("bump", core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(1000)}).
			Project(1, 0)
		sink := d.CollectSink()
		return d.b.Plan(), sink
	}
	checkColumnPathEngaged(t, build, "", "relstore")
}
