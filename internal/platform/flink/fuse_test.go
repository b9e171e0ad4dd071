package flink

import (
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/platformtest"
)

// narrowChain builds src -> 8 narrow ops (6 identity maps, 2 filters that
// each keep most quanta) over n int64 quanta, wired into a plan, and returns
// the plan and its operators in order.
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

func TestConfigNoOverheadSentinel(t *testing.T) {
	def := Config{}.withDefaults()
	if def.ContextStartupMs != 80 || def.JobStartupMs != 6 || def.ExchangeLatencyMs != 2 {
		t.Fatalf("zero config got defaults %+v", def)
	}
	free := Config{ContextStartupMs: driverutil.NoOverheadMs, JobStartupMs: driverutil.NoOverheadMs, ExchangeLatencyMs: driverutil.NoOverheadMs}.withDefaults()
	if free.ContextStartupMs != 0 || free.JobStartupMs != 0 || free.ExchangeLatencyMs != 0 {
		t.Fatalf("sentinel config not honored: %+v", free)
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
	// A panic inside a fused segment must fail the job, not deadlock the
	// pipeline: the segment goroutine drains its input after recovering.
	d := NewWithConfig(nil, fastConf())
	_, ops := narrowChain(10_000)
	ops[4].UDF.Map = func(q any) any {
		if q.(int64) == 4242 {
			panic("boom at 4242")
		}
		return q
	}
	stage, in := chainStage(d, ops)
	_, _, err := d.Execute(stage, in)
	if err == nil {
		t.Fatal("expected mid-chain UDF panic to fail the job")
	}
	if !strings.Contains(err.Error(), "UDF panic") || !strings.Contains(err.Error(), "boom at 4242") {
		t.Fatalf("panic not surfaced as stage error: %v", err)
	}
}

// BenchmarkFlinkNarrowChain measures an 8-op narrow chain over 1M quanta:
// vectors of fuseBatch quanta through one kernel per instance.
func BenchmarkFlinkNarrowChain(b *testing.B) {
	d := NewWithConfig(nil, Config{
		Parallelism:       8,
		ContextStartupMs:  driverutil.NoOverheadMs,
		JobStartupMs:      driverutil.NoOverheadMs,
		ExchangeLatencyMs: driverutil.NoOverheadMs,
	})
	_, ops := narrowChain(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stage, in := chainStage(d, ops)
		if _, _, err := d.Execute(stage, in); err != nil {
			b.Fatal(err)
		}
	}
}
