package optimizer

import (
	"fmt"
	"maps"
	"math"

	"rheem/internal/core"
)

// enumerateExhaustive prices every combination of candidates with planCost
// and leaves the cheapest in ep.Assignments; it returns that cost. It is the
// reference the pruned enumeration is checked against and the baseline of
// the pruning ablation: k^n plans for n operators with k candidates each.
func (pr *pricer) enumerateExhaustive(ep *core.ExecPlan, cands map[*core.Operator][]*core.Assignment) (float64, error) {
	ops := ep.Plan.Operators()
	total := 1
	for _, op := range ops {
		total *= len(cands[op])
		if total > 5_000_000 {
			return 0, fmt.Errorf("optimizer: exhaustive enumeration infeasible (> 5M plans)")
		}
	}
	bestCost := math.Inf(1)
	var best map[*core.Operator]*core.Assignment
	var rec func(i int)
	rec = func(i int) {
		if i == len(ops) {
			pr.opts.Metrics.Counter("rheem_optimizer_plans_considered_total").Inc()
			if c, err := pr.planCost(ep); err == nil && c.LowMs < bestCost {
				bestCost, best = c.LowMs, maps.Clone(ep.Assignments)
			}
			return
		}
		for _, a := range cands[ops[i]] {
			ep.Assignments[ops[i]] = a
			rec(i + 1)
		}
	}
	rec(0)
	if best == nil {
		return 0, fmt.Errorf("optimizer: exhaustive: no feasible plan")
	}
	maps.Copy(ep.Assignments, best)
	return bestCost, nil
}
