package progressive

import (
	"context"
	"strings"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/monitor"
	"rheem/internal/optimizer"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
	"rheem/internal/trace"
)

func newReg(t *testing.T) *core.Registry {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if err := reg.Register(streams.New(store)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spark.NewWithConfig(store, spark.Config{Parallelism: 4, Latency: driverutil.Latency{ContextMs: 0.01, StageMs: 0.01, BarrierMs: 0.01}})); err != nil {
		t.Fatal(err)
	}
	return reg
}

// misleadingPlan builds a plan whose filter carries a wildly wrong
// selectivity hint: the optimizer will plan the tail for ~1 quantum while
// the filter actually passes everything.
func misleadingPlan(n int) (*core.Plan, *core.Operator) {
	p := core.NewPlan("misled")
	src := p.NewOperator(core.KindCollectionSource, "src")
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	src.Params.Collection = data
	src.TargetPlatform = "spark" // force a stage break after the filter's stage
	f := p.NewOperator(core.KindFilter, "low-sel-hinted")
	f.UDF.Pred = func(q any) bool { return true } // actually passes all
	f.Selectivity = 0.0001                        // the misleading user hint
	f.TargetPlatform = "spark"
	m := p.NewOperator(core.KindMap, "tail")
	m.UDF.Map = func(q any) any { return q }
	m.TargetPlatform = "streams" // believed-tiny tail: streams looks best
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "streams"
	p.Chain(src, f, m, sink)
	return p, f
}

func TestReoptimizerTriggersOnMismatch(t *testing.T) {
	reg := newReg(t)
	p, f := misleadingPlan(20000)
	opts := optimizer.Options{Registry: reg}
	ep, err := optimizer.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the optimizer believed the hint.
	if est := ep.Assignments[f].OutCard; est.High > 1000 {
		t.Fatalf("hint not honoured: %v", est)
	}
	re := New(p, ep, opts)
	ex := &executor.Executor{Registry: reg, Checkpoint: re.Checkpoint}
	res, err := ex.Run(ep)
	if err != nil {
		t.Fatal(err)
	}
	if re.Replans() == 0 || res.Replans == 0 {
		t.Fatal("mismatched cardinalities did not trigger re-optimization")
	}
	// The re-optimized plan pinned the true cardinality.
	if est := res.Plan.Assignments[f].OutCard; est.Low != 20000 {
		t.Fatalf("replanned estimate = %v, want exact 20000", est)
	}
	data, err := res.FirstSinkData()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 20000 {
		t.Fatalf("results lost across replanning: %d", len(data))
	}
}

func TestReoptimizerQuietWhenEstimatesGood(t *testing.T) {
	reg := newReg(t)
	p := core.NewPlan("fine")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{int64(1), int64(2)}
	src.TargetPlatform = "spark"
	m := p.NewOperator(core.KindMap, "id")
	m.UDF.Map = func(q any) any { return q }
	m.TargetPlatform = "streams"
	sink := p.NewOperator(core.KindCollectionSink, "out")
	sink.TargetPlatform = "streams"
	p.Chain(src, m, sink)

	opts := optimizer.Options{Registry: reg}
	ep, err := optimizer.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	re := New(p, ep, opts)
	ex := &executor.Executor{Registry: reg, Checkpoint: re.Checkpoint}
	if _, err := ex.Run(ep); err != nil {
		t.Fatal(err)
	}
	if re.Replans() != 0 {
		t.Fatalf("replanned %d times despite exact estimates", re.Replans())
	}
}

func TestReoptimizerRespectsMaxReplans(t *testing.T) {
	reg := newReg(t)
	p, _ := misleadingPlan(20000)
	opts := optimizer.Options{Registry: reg}
	ep, _ := optimizer.Optimize(p, opts)
	re := New(p, ep, opts)
	re.MaxReplans = 0
	newEP, err := re.Checkpoint(context.Background(), nil, map[*core.Operator]bool{})
	if err != nil || newEP != nil {
		t.Fatalf("MaxReplans=0 must disable replanning: %v, %v", newEP, err)
	}
}

func TestMonitorHealthCheck(t *testing.T) {
	reg := newReg(t)
	p, f := misleadingPlan(5000)
	ep, err := optimizer.Optimize(p, optimizer.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	record := []*core.StageStats{{
		Stage:   &core.Stage{ID: 1, Platform: "spark", Ops: []*core.Operator{f}, ExecPlan: ep},
		Runtime: 5 * time.Millisecond,
		Ops:     map[*core.Operator]core.OpStats{f: {OutCard: 5000, Runtime: time.Millisecond}},
	}}
	mismatches := monitor.HealthCheck(record, ep, 4)
	if len(mismatches) != 1 || mismatches[0].Op != f {
		t.Fatalf("health check = %+v", mismatches)
	}
	if mismatches[0].Factor < 100 {
		t.Fatalf("factor = %f", mismatches[0].Factor)
	}
	snap := monitor.Summarize(record)
	if len(snap.Stages) != 1 || snap.TotalRuntimeMs != 5 {
		t.Fatalf("summary = %+v", snap)
	}
	if ops := snap.Stages[0].Ops; len(ops) != 1 || ops[0].RuntimeMs != 1 || ops[0].OutCard != 5000 {
		t.Fatalf("op summary = %+v", ops)
	}
}

// TestReplanSpanInTrace runs a replanned job under a tracer and asserts the
// trace carries a replan span annotated with the triggering mismatches.
func TestReplanSpanInTrace(t *testing.T) {
	reg := newReg(t)
	p, f := misleadingPlan(20000)
	opts := optimizer.Options{Registry: reg}
	ep, err := optimizer.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	re := New(p, ep, opts)
	ex := &executor.Executor{Registry: reg, Checkpoint: re.Checkpoint}

	tr := trace.New(trace.KindJob, "job:misled")
	ctx := trace.NewContext(context.Background(), tr.Root())
	if _, err := ex.RunCtx(ctx, ep); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	if re.Replans() == 0 {
		t.Fatal("plan did not replan; test premise broken")
	}

	sj := tr.Snapshot()
	replans := sj.FindAll(trace.KindReplan)
	if len(replans) != re.Replans() {
		t.Fatalf("%d replan spans for %d replans", len(replans), re.Replans())
	}
	rsp := replans[0]
	if rsp.Name != "replan-1" {
		t.Fatalf("replan span name = %q", rsp.Name)
	}
	mismatch, ok := rsp.Attr("mismatch")
	if !ok {
		t.Fatalf("replan span lacks mismatch attr: %+v", rsp.Attrs)
	}
	if !strings.Contains(mismatch, f.String()) || !strings.Contains(mismatch, "observed=20000") {
		t.Fatalf("mismatch attr %q does not name the misled operator", mismatch)
	}
	if n, _ := rsp.Attr("mismatch_count"); n == "" || n == "0" {
		t.Fatalf("mismatch_count attr = %q", n)
	}
	// The replan nests an optimize span (the re-optimization itself).
	if rsp.Find(trace.KindOptimize) == nil {
		t.Fatal("replan span has no nested optimize span")
	}
}
