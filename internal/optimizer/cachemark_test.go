package optimizer

import (
	"testing"

	"rheem/internal/core"
)

// TestMarkedSubtreeCostIsItsPlanCostParts: the cache marker prices a subtree
// from the parts planCost prices the plan from, a movement at the cost of its
// tree. The sink's subtree is the whole plan, so its marked cost is the
// plan's cost before fusion discounts and start-up.
func TestMarkedSubtreeCostIsItsPlanCostParts(t *testing.T) {
	env := newTestEnv(t)
	p := core.NewPlan("join")
	join := joinOp(p, source(p, 5000), source(p, 5000))
	join.TargetPlatform = "spark"
	m := mapOp(p, "m")
	m.TargetPlatform = "streams"
	p.Chain(join, m, p.NewOperator(core.KindCollectionSink, "out"))
	ep, err := Optimize(p, env.opts())
	if err != nil {
		t.Fatal(err)
	}
	if mv := ep.Movements[join]; mv == nil || mv.CostEst.LowMs == mv.CostEst.HighMs {
		t.Fatalf("the join's output moves as %+v; the test needs a movement over an uncertain cardinality", mv)
	}
	fps := core.FingerprintPlan(p, core.FingerprintOptions{})
	if n := MarkCacheOuts(ep, fps, 0); n != len(p.Operators())-2 {
		t.Fatalf("marked %d operators, want every one but the collection sources", n)
	}
	for op, out := range ep.CacheOuts {
		var parts float64
		for _, o := range fps[op].Ops {
			parts += ep.Assignments[o].CostEst.Geomean()
			if mv := ep.Movements[o]; mv != nil {
				parts += mv.Tree.CostMs
			}
		}
		if !sameCost(out.CostMs, parts) {
			t.Errorf("%s: marked at %v ms, its parts sum to %v", op, out.CostMs, parts)
		}
	}
	pr := newPricer(env.opts().withDefaults(), nil, map[string]quote{}, 1)
	var fusion, startup float64
	for _, op := range p.Operators() {
		fusion += pr.fusion(ep, op)
	}
	for _, pf := range ep.Platforms() {
		boot, stage := env.reg.StartupCostMs(pf)
		startup += boot + stage
	}
	if sink := p.Sinks()[0]; !sameCost(ep.CacheOuts[sink].CostMs-fusion+startup, ep.Cost.Geomean()) {
		t.Errorf("the sink's subtree is marked at %v ms; less %v of fusion, plus %v of start-up, it is not the plan's %v",
			ep.CacheOuts[sink].CostMs, fusion, startup, ep.Cost.Geomean())
	}
}
