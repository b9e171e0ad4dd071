package platformtest_test

// The chain kernel is the only way the narrow kinds and the declarative
// reduce-by run, so every engine is held to the reference interpreter on the
// shortest chains there are: each narrow kind alone (a chain of length one)
// — plain, under a sniffer, and failing — and a declarative reduce-by with
// no narrow run in front of it (a chain of zero narrow steps).

import (
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/platformtest"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
)

func engines() []core.Driver {
	return []core.Driver{
		streams.New(nil),
		spark.NewWithConfig(nil, spark.Config{Parallelism: 4, ContextStartupMs: spark.NoOverheadMs, JobStartupMs: spark.NoOverheadMs, ShuffleLatencyMs: spark.NoOverheadMs}),
		flink.NewWithConfig(nil, flink.Config{Parallelism: 4, ContextStartupMs: flink.NoOverheadMs, JobStartupMs: flink.NoOverheadMs, ExchangeLatencyMs: flink.NoOverheadMs}),
		relstore.New(relstore.Config{QueryLatencyMs: -1}, relstore.NewStore("pg")),
	}
}

// checkSniffed runs p with a sniffer on op and holds what it saw to the
// reference's output of op.
func checkSniffed(t *testing.T, d core.Driver, p *core.Plan, op *core.Operator) {
	t.Helper()
	want, err := platformtest.Interpret(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sniffed []any
	sniffers := map[*core.Operator]func(any){op: func(q any) { sniffed = append(sniffed, q) }}
	if _, _, err := platformtest.ExecPlan(d, p, sniffers); err != nil {
		t.Fatal(err)
	}
	if err := platformtest.SameMultiset(sniffed, want[op]); err != nil {
		t.Fatalf("sniffer on %s: %v", op, err)
	}
}

func TestLoneNarrowOperators(t *testing.T) {
	ints := []any{int64(1), int64(2), int64(3), int64(4), int64(5)}
	recs := []any{core.Record{int64(1), "a", 0.5}, core.Record{int64(2), "b", 1.5}}
	cases := []struct {
		name    string
		op, bad core.Operator // bad must fail the stage with failure
		failure string
		in      []any
	}{
		{"Map",
			core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q.(int64) * 10 }}},
			core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(any) any { panic("boom") }}}, "UDF panic: boom", ints},
		{"Filter",
			core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%2 == 1 }}},
			core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(any) bool { panic("boom") }}}, "UDF panic: boom", ints},
		{"FilterWhere",
			core.Operator{Kind: core.KindFilter, Params: core.Params{Where: &core.Predicate{Col: 0, Op: core.PredGt, Value: int64(1)}}},
			core.Operator{Kind: core.KindFilter}, "lacks a predicate", recs},
		{"FlatMap",
			core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(q any) []any { return []any{q, q} }}},
			core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(any) []any { panic("boom") }}}, "UDF panic: boom", ints},
		{"Project",
			core.Operator{Kind: core.KindProject, Params: core.Params{Columns: []int{2, 0}}},
			core.Operator{Kind: core.KindProject, Params: core.Params{Columns: []int{7}}}, "UDF panic", recs},
	}
	for _, d := range engines() {
		for _, c := range cases {
			if d.Name() == relstore.Platform && c.op.Kind != core.KindFilter && c.op.Kind != core.KindProject {
				continue // not a relational kind
			}
			plan := func(op core.Operator) (*core.Plan, *core.Operator) {
				p := core.NewPlan("lone-" + c.name)
				src := p.NewOperator(core.KindCollectionSource, "src")
				src.Params.Collection = c.in
				return p, p.Chain(src, p.Add(&op))
			}
			t.Run(d.Name()+"/"+c.name, func(t *testing.T) {
				p, op := plan(c.op)
				if stats := platformtest.CheckPlan(t, d, p); len(stats.FusedChains) != 0 {
					t.Fatalf("a lone operator reported as a fused pipeline: %v", stats.FusedChains)
				}
				checkSniffed(t, d, p, op)

				p, _ = plan(c.bad)
				if _, _, err := platformtest.ExecPlan(d, p, nil); err == nil || !strings.Contains(err.Error(), c.failure) {
					t.Fatalf("stage error = %v, want one naming %q", err, c.failure)
				}
			})
		}
	}
}

func TestStandAloneDeclarativeReduceBy(t *testing.T) {
	// The reduce-by's producer is a join, so no narrow run can absorb it.
	p := core.NewPlan("join-agg")
	left := p.NewOperator(core.KindCollectionSource, "left")
	right := p.NewOperator(core.KindCollectionSource, "right")
	for i := 0; i < 60; i++ {
		left.Params.Collection = append(left.Params.Collection, core.Record{int64(i % 6), int64(i)})
		right.Params.Collection = append(right.Params.Collection, core.Record{int64(i % 4), float64(i) / 2})
	}
	join := p.NewOperator(core.KindJoin, "join")
	key := func(q any) any { return q.(core.Record)[0] }
	join.UDF = core.UDFs{Key: key, KeyRight: key, Combine: func(l, r any) any {
		return core.Record{l.(core.Record)[0], l.(core.Record)[1], r.(core.Record)[1]}
	}}
	p.Connect(left, join, 0)
	p.Connect(right, join, 1)
	agg := p.NewOperator(core.KindReduceBy, "agg")
	expr := &core.ReduceExpr{GroupCols: []int{0}, Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 1}, {Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggMin, Col: 2}, {Op: core.AggMax, Col: 1}, {Op: core.AggAvg, Col: 2},
	}}
	agg.UDF = core.UDFs{ReduceExpr: expr, Key: expr.KeyFn()}
	p.Connect(join, agg, 0)
	for _, d := range engines() {
		t.Run(d.Name(), func(t *testing.T) {
			platformtest.CheckPlan(t, d, p)
			checkSniffed(t, d, p, agg)
		})
	}
}
