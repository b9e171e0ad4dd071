package optimizer

import (
	"math"
	"testing"

	"rheem/internal/core"
)

// narrowPlan builds source(n) -> map -> filter -> map -> map -> sink: a
// pipeline the engines execute as one fused kernel.
func narrowPlan(n int) *core.Plan {
	p := core.NewPlan("narrow")
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = data
	m1 := p.NewOperator(core.KindMap, "m1")
	m1.UDF.Map = func(q any) any { return q }
	f := p.NewOperator(core.KindFilter, "f")
	f.UDF.Pred = func(q any) bool { return q.(int64)%2 == 0 }
	m2 := p.NewOperator(core.KindMap, "m2")
	m2.UDF.Map = func(q any) any { return q }
	m3 := p.NewOperator(core.KindMap, "m3")
	m3.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Chain(src, m1, f, m2, m3, sink)
	return p
}

func TestFusionDiscountLowersPlanCost(t *testing.T) {
	env := newTestEnv(t)
	p := narrowPlan(5000)
	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}

	// The discount only applies to same-platform producer/consumer pairs, so
	// it must pull the whole narrow chain onto a single platform.
	if platforms := ep.Platforms(); len(platforms) != 1 {
		t.Fatalf("narrow chain split across platforms: %v", platforms)
	}

	// The fusion-blind price of the chosen plan: every operator's own
	// estimate, the movements, the start-up of the platforms used. The plan
	// must cost less than that by exactly the fixed overhead of the three
	// operators (f, m2, m3) that ride m1's chain.
	costs := DefaultCostTable(env.reg.Mappings.Platforms())
	var blind, discount float64
	for op, a := range ep.Assignments {
		blind += a.CostEst.Geomean()
		if core.FusibleKind(op.Kind) && core.FusibleKind(op.Inputs()[0].Kind) {
			discount += costs.FusedStepOverheadMs(a.Alt)
		}
	}
	for _, mv := range ep.Movements {
		blind += mv.CostEst.Geomean()
	}
	for _, pf := range ep.Platforms() {
		blind += env.reg.StartupCostMs(pf)
	}
	if discount <= 0 {
		t.Fatal("no fixed overhead to discount")
	}
	if got := blind - ep.Cost.LowMs; math.Abs(got-discount) > 1e-9 {
		t.Fatalf("plan costs %v, fusion-blind %v: discount %v, want %v", ep.Cost.LowMs, blind, got, discount)
	}
}

func TestFusedStepOverheadMs(t *testing.T) {
	ct := DefaultCostTable([]string{"spark"})
	alt := core.Alternative{Platform: "spark", Steps: []core.ExecOpTemplate{{Name: "spark.map"}}}
	got := ct.FusedStepOverheadMs(alt)
	// spark.map defaults to FixedOverhead 0.2 at MsPerFixed 6.
	if want := 0.2 * 6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("FusedStepOverheadMs = %v, want %v", got, want)
	}
	// Unknown platforms fall back to unit costs rather than zeroing the
	// discount silently.
	other := core.Alternative{Platform: "nope", Steps: []core.ExecOpTemplate{{Name: "nope.map"}}}
	if got := ct.FusedStepOverheadMs(other); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("fallback overhead = %v, want 0.2", got)
	}
}
