package optimizer

import (
	"math"
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
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
	costs := DefaultCostTable(env.reg)
	var blind, discount float64
	for op, a := range ep.Assignments {
		blind += a.CostEst.Geomean()
		if op.Kind.IsNarrow() && op.Inputs()[0].Kind.IsNarrow() {
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
	ct := DefaultCostTable(newTestEnv(t).reg)
	alt := core.Alternative{Platform: "spark", Steps: []core.ExecOpTemplate{sparkMap}}
	got := ct.FusedStepOverheadMs(alt)
	// spark.map declares FixedOverhead 0.2; spark prices it at MsPerFixed 6.
	if want := 0.2 * 6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("FusedStepOverheadMs = %v, want %v", got, want)
	}
	// Unknown platforms fall back to unit costs rather than zeroing the
	// discount silently.
	other := core.Alternative{Platform: "nope", Steps: []core.ExecOpTemplate{{Name: "nope.map", Cost: driverutil.MapCost}}}
	if got := ct.FusedStepOverheadMs(other); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("fallback overhead = %v, want 0.2", got)
	}
}

// pinnedNarrowPlan is narrowPlan(n) with m1 pinned to home and m2 to other.
func pinnedNarrowPlan(n int, home, other string) (p *core.Plan, m1, m2 *core.Operator) {
	p = narrowPlan(n)
	for _, op := range p.Operators() {
		switch op.Label {
		case "m1":
			m1 = op
		case "m2":
			m2 = op
		}
	}
	m1.TargetPlatform, m2.TargetPlatform = home, other
	return p, m1, m2
}

// Pins that put m1 and m2 on different platforms split the narrow chain
// the fusion discount would otherwise keep whole: each pin holds, a movement
// crosses the boundary, and the plan can only cost more than the unpinned
// one.
func TestPinnedOperatorsSplitTheChain(t *testing.T) {
	env := newTestEnv(t)
	unpinned, err := Optimize(narrowPlan(5000), env.opts())
	if err != nil {
		t.Fatal(err)
	}
	home, other := unpinned.Platforms()[0], "streams"
	if home == other {
		other = "spark"
	}

	p, m1, m2 := pinnedNarrowPlan(5000, home, other)
	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	if ep.PlatformOf(m1) != home || ep.PlatformOf(m2) != other {
		t.Fatalf("m1 on %q, m2 on %q; pinned to %q and %q:\n%s", ep.PlatformOf(m1), ep.PlatformOf(m2), home, other, ep)
	}
	if got := ep.Platforms(); !reflect.DeepEqual(got, []string{"spark", "streams"}) {
		t.Fatalf("platforms = %v:\n%s", got, ep)
	}
	crossings := 0
	for producer, mv := range ep.Movements {
		if len(mv.Tree.Edges) > 0 && producer.Kind.IsNarrow() {
			crossings++
		}
	}
	if crossings != 1 {
		t.Fatalf("%d movements inside the chain, want 1:\n%s", crossings, ep)
	}
	if err := ep.Validate(env.reg); err != nil {
		t.Fatalf("Validate: %v\n%s", err, ep)
	}
	if ep.Cost.LowMs < unpinned.Cost.LowMs {
		t.Fatalf("pinned plan costs %v, less than the unpinned %v", ep.Cost, unpinned.Cost)
	}
}
