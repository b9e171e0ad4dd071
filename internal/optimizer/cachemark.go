package optimizer

import (
	"rheem/internal/core"
)

// MarkCacheOuts marks cache-worthy operator outputs on an optimized plan:
// the materialized-result counterpart of the enumeration. For every
// fingerprinted operator whose subtree's estimated compute cost (chosen
// alternatives plus data movement, geomean of the interval bounds) reaches
// minCostMs, the execution plan records the fingerprint, the saved cost,
// and the source datasets the subtree reads. The executor publishes the
// marked outputs it happens to materialize anyway (stage terminals) to the
// result cache — marking never forces extra materialization.
//
// It returns the number of operators marked.
func MarkCacheOuts(ep *core.ExecPlan, fps map[*core.Operator]*core.FPInfo, minCostMs float64) int {
	if ep == nil || len(fps) == 0 {
		return 0
	}
	n := 0
	for op, info := range fps {
		// Caching a literal collection source would duplicate data the plan
		// already embeds (its content is the fingerprint).
		if op.Kind == core.KindCollectionSource {
			continue
		}
		cost := subtreeCostMs(ep, info)
		if cost < minCostMs {
			continue
		}
		if ep.CacheOuts == nil {
			ep.CacheOuts = map[*core.Operator]*core.CacheOut{}
		}
		ep.CacheOuts[op] = &core.CacheOut{Fingerprint: info.Hash, CostMs: cost, Sources: info.Sources}
		n++
	}
	return n
}

// subtreeCostMs sums the optimizer's estimates over a fingerprinted
// subtree: per-operator execution cost plus the data movement rooted at
// each operator's output.
func subtreeCostMs(ep *core.ExecPlan, info *core.FPInfo) float64 {
	var cost float64
	for _, op := range info.Ops {
		if a := ep.Assignments[op]; a != nil {
			cost += a.CostEst.Geomean()
		}
		if mv := ep.Movements[op]; mv != nil {
			cost += mv.CostEst.Geomean()
		}
	}
	return cost
}
