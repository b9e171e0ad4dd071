package optimizer

import (
	"fmt"
	"math"

	"rheem/internal/core"
)

// enumerateExhaustive enumerates every combination of alternatives (no
// pruning). It exists as the ablation baseline for the lossless pruning:
// both must select plans of equal cost, while this one explodes
// combinatorially (k^n plans for n operators with k alternatives each).
func enumerateExhaustive(p *core.Plan, opts Options, inflated map[*core.Operator][]core.Alternative, cards map[*core.Operator]core.CardEstimate) (map[*core.Operator]int, float64, error) {
	var ops []*core.Operator
	for _, op := range p.Operators() {
		if op.Kind.IsLoop() {
			continue
		}
		ops = append(ops, op)
	}
	total := 1
	for _, op := range ops {
		total *= len(inflated[op])
		if total > 5_000_000 {
			return nil, 0, fmt.Errorf("optimizer: exhaustive enumeration infeasible (> 5M plans)")
		}
	}

	bestCost := math.Inf(1)
	var bestChoice map[*core.Operator]int
	choice := map[*core.Operator]int{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(ops) {
			opts.Metrics.Counter("rheem_optimizer_plans_considered_total").Inc()
			c, ok := planCost(p, opts, inflated, cards, choice)
			if ok && c < bestCost {
				bestCost = c
				bestChoice = map[*core.Operator]int{}
				for k, v := range choice {
					bestChoice[k] = v
				}
			}
			return
		}
		for ai := range inflated[ops[i]] {
			choice[ops[i]] = ai
			rec(i + 1)
		}
	}
	rec(0)
	if bestChoice == nil {
		return nil, 0, fmt.Errorf("optimizer: exhaustive: no feasible plan")
	}
	return bestChoice, bestCost, nil
}

// planCost prices a complete assignment: operator costs, movement along
// every edge, and start-up for every used platform.
func planCost(p *core.Plan, opts Options, inflated map[*core.Operator][]core.Alternative, cards map[*core.Operator]core.CardEstimate, choice map[*core.Operator]int) (float64, bool) {
	const inf = math.MaxFloat64 / 4
	total := 0.0
	used := map[string]bool{}
	for op, idx := range choice {
		alt := inflated[op][idx]
		total += opts.Costs.AlternativeCost(alt, inputCard(op, cards), cards[op]).Geomean() * opts.weight(alt.Platform)
		used[alt.Platform] = true
	}
	for _, e := range p.Edges() {
		if e.From.Kind.IsLoop() || e.To.Kind.IsLoop() {
			continue
		}
		pi, ok := choice[e.From]
		if !ok {
			continue
		}
		ci, ok := choice[e.To]
		if !ok {
			continue
		}
		accepts := inflated[e.To][ci].InChannels()
		if e.Broadcast {
			accepts = []string{"collection"}
		}
		_, mv := reach(opts, inflated[e.From][pi].OutChannel(), accepts, cards[e.From])
		if mv >= inf {
			return 0, false
		}
		total += mv
	}
	for pf := range used {
		total += opts.Registry.StartupCostMs(pf) * opts.weight(pf)
	}
	return total, true
}
