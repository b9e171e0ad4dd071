package spark

import (
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
)

// narrowChain builds src -> 8 narrow ops (6 identity maps, 2 filters that
// each keep 90%) over n int64 quanta, wired into a plan, and returns the plan
// and its operators in order. The last op is the stage's terminal output.
func narrowChain(n int) (*core.Plan, []*core.Operator) {
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	p := core.NewPlan("narrow-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	for i := 0; i < 8; i++ {
		var op *core.Operator
		switch i {
		case 2:
			op = &core.Operator{Kind: core.KindFilter, Label: "f-mod10",
				UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%10 != 0 }}}
		case 5:
			op = &core.Operator{Kind: core.KindFilter, Label: "f-mod7",
				UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%7 != 0 }}}
		default:
			op = &core.Operator{Kind: core.KindMap, Label: "m-id",
				UDF: core.UDFs{Map: func(q any) any { return q }}}
		}
		ops = append(ops, op)
	}
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return p, ops
}

func chainStage(d *Driver, ops []*core.Operator) (*core.Stage, *core.Inputs) {
	last := ops[len(ops)-1]
	return &core.Stage{ID: 1, Platform: d.Name(), Ops: ops, TerminalOuts: []*core.Operator{last}}, core.NewInputs()
}

// TestPartitionAppendDoesNotBleed: Partition cuts the caller's slice with
// SplitRows' three-index slices, so appending to one partition cannot
// clobber its neighbor — each partition's capacity is clamped to its own
// window.
func TestPartitionAppendDoesNotBleed(t *testing.T) {
	parts := Partition([]any{int64(1), int64(2), int64(3), int64(4)}, 2).Parts
	_ = append(parts[0], int64(42))
	if parts[1][0] != int64(3) {
		t.Fatalf("append to part 0 bled into part 1: %v", parts[1])
	}
}

// TestCallerOwnedCollectionSurvivesMutatingUDF pins the copy the
// map-partitions arm of driverutil.ApplyBlocking hands its UDF: a MapPart UDF
// may overwrite the partition it is handed, and spark.parallelize splits a
// caller-held collection where it lies, so the collection converted to an
// rdd channel must give the same result when converted and executed a second
// time. (The entries every engine shares are pinned in platformtest's
// TestCallerOwnedInputSurvivesMutatingUDF.)
func TestCallerOwnedCollectionSurvivesMutatingUDF(t *testing.T) {
	d := NewWithConfig(nil, fastConf())
	const n = 1000
	held := make([]any, n)
	for i := range held {
		held[i] = int64(i)
	}
	var parallelize *core.Conversion
	for _, c := range d.Conversions() {
		if c.Name == "spark.parallelize" {
			parallelize = c
		}
	}
	for run := 1; run <= 2; run++ {
		ch, err := parallelize.Convert(core.NewChannel(core.CollectionChannel, core.NewSliceDataset(held), n))
		if err != nil {
			t.Fatal(err)
		}
		mp := &core.Operator{Kind: core.KindMapPart, Label: "double", UDF: core.UDFs{MapPart: func(part []any) []any {
			for i, q := range part {
				part[i] = q.(int64) * 2
			}
			return part
		}}}
		got := platformtest.SortedInts(t, platformtest.RunOp(t, d, mp, ch))
		for i, v := range got {
			if v != int64(2*i) {
				t.Fatalf("run %d: quantum %d is %d, want %d (the held collection was overwritten)", run, i, v, 2*i)
			}
		}
	}
}

func TestFusedChainMatchesUnfused(t *testing.T) {
	// The 8-op chain runs as one kernel; its output and every operator's
	// observed cardinality must be the reference interpreter's.
	d := NewWithConfig(nil, fastConf())
	p, _ := narrowChain(10_000)
	stats := platformtest.CheckPlan(t, d, p)
	if len(stats.FusedChains) != 1 || len(stats.FusedChains[0]) != 8 {
		t.Fatalf("expected one fused chain of 8 ops, got %v", stats.FusedChains)
	}
}

func TestFusedChainUDFPanicFailsJob(t *testing.T) {
	// A panicking UDF in the middle of a fused kernel must surface as a
	// failed stage — not a lost partition or a deadlocked pool feeder.
	d := NewWithConfig(nil, fastConf())
	_, ops := narrowChain(10_000)
	ops[4].UDF.Map = func(q any) any {
		if q.(int64) == 7777 {
			panic("boom at 7777")
		}
		return q
	}
	stage, in := chainStage(d, ops)
	_, _, err := d.Execute(stage, in)
	if err == nil {
		t.Fatal("expected mid-chain UDF panic to fail the job")
	}
	if !strings.Contains(err.Error(), "UDF panic") || !strings.Contains(err.Error(), "boom at 7777") {
		t.Fatalf("panic not surfaced as stage error: %v", err)
	}
}

// declChainOps builds src -> 8 declarative narrow ops (6 numeric-expression
// maps, 2 predicate filters that each keep ~90%) over n int64 quanta — the
// same shape as narrowChain but in the forms the vectorized kernel
// compiles to column loops.
func declChainOps(n int) (*core.Plan, []*core.Operator) {
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	p := core.NewPlan("decl-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	mkMap := func(label string, op core.NumOp, operand int64) *core.Operator {
		e := core.MapExpr{Col: core.WholeQuantum, Op: op, Operand: operand}
		return &core.Operator{Kind: core.KindMap, Label: label,
			UDF: core.UDFs{Map: e.Fn(), MapExpr: &e}}
	}
	mkFilter := func(label string, op core.PredOp, v int64) *core.Operator {
		return &core.Operator{Kind: core.KindFilter, Label: label,
			Params: core.Params{Where: &core.Predicate{Col: core.WholeQuantum, Op: op, Value: v}}}
	}
	ops = append(ops,
		mkMap("m-add1", core.NumAdd, 1),
		mkMap("m-add2", core.NumAdd, 2),
		mkFilter("f-gt", core.PredGt, int64(n)/10), // keeps ~90%
		mkMap("m-mul2", core.NumMul, 2),
		mkMap("m-sub3", core.NumSub, 3),
		mkFilter("f-le", core.PredLe, 2*int64(n)-int64(n)/5), // keeps ~90%
		mkMap("m-add5", core.NumAdd, 5),
		mkMap("m-sub1", core.NumSub, 1),
	)
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return p, ops
}

func TestColumnarChainMatchesRowChain(t *testing.T) {
	// The 8-op declarative chain runs as column loops; its output and every
	// operator's observed cardinality must be the reference interpreter's,
	// and the column path must really have run.
	d := NewWithConfig(nil, fastConf())
	p, _ := declChainOps(50_000)
	stats := platformtest.CheckPlan(t, d, p)
	if len(stats.Vectorized) != 1 || stats.Vectorized[0].VecSteps != 8 {
		t.Fatalf("expected one fully-vectorized chain, got %+v", stats.Vectorized)
	}
	if stats.Vectorized[0].Batches == 0 || stats.Vectorized[0].Rows == 0 {
		t.Fatalf("column path never engaged: %+v", stats.Vectorized[0])
	}
}

// aggChainOps builds src -> filter -> map -> declarative reduce-by over n
// record quanta: the shape whose trailing aggregation the vectorized
// grouped-aggregation kernel absorbs whole-batch.
func aggChainOps(n int) []*core.Operator {
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 9973), float64(i%101) / 2, "g" + string(rune('0'+i%7))}
	}
	p := core.NewPlan("agg-chain")
	ops := []*core.Operator{
		{Kind: core.KindCollectionSource, Label: "src", Params: core.Params{Collection: data}},
	}
	we := core.Predicate{Col: 0, Op: core.PredGt, Value: int64(500)}
	me := core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(5)}
	re := core.ReduceExpr{GroupCols: []int{2}, Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 0},
		{Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggAvg, Col: 1},
	}}
	ops = append(ops,
		&core.Operator{Kind: core.KindFilter, Label: "f-gt", Params: core.Params{Where: &we}},
		&core.Operator{Kind: core.KindMap, Label: "m-add", UDF: core.UDFs{Map: me.Fn(), MapExpr: &me}},
		&core.Operator{Kind: core.KindReduceBy, Label: "agg", UDF: core.UDFs{ReduceExpr: &re, Key: re.KeyFn()}},
	)
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	return ops
}

// BenchmarkColumnarAggChain measures a declarative filter->map->reduce-by
// chain over 1M records, with the trailing aggregation absorbed into the
// fused kernel: whole batches into the grouped-aggregation kernel.
func BenchmarkColumnarAggChain(b *testing.B) {
	benchChain(b, aggChainOps(1_000_000))
}

// benchChain executes ops as one spark stage per iteration, simulated
// overheads off.
func benchChain(b *testing.B, ops []*core.Operator) {
	d := NewWithConfig(nil, Config{Parallelism: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage, in := chainStage(d, ops)
		if _, _, err := d.Execute(stage, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSparkNarrowChain measures an 8-op narrow chain over 1M quanta:
// one single-pass kernel per partition.
func BenchmarkSparkNarrowChain(b *testing.B) {
	_, ops := narrowChain(1_000_000)
	benchChain(b, ops)
}

// BenchmarkColumnarNarrowChain measures an 8-op declarative chain over 1M
// quanta: column loops with a selection vector.
func BenchmarkColumnarNarrowChain(b *testing.B) {
	_, ops := declChainOps(1_000_000)
	benchChain(b, ops)
}
