package optimizer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rheem/internal/core"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// Options configure an optimization run.
type Options struct {
	Registry *core.Registry
	Costs    *CostTable
	Resolve  SourceResolver
	// Resume, when set, makes this run a replan of a partially executed plan
	// (progressive re-optimization): what ran stays as it ran and the observed
	// cardinalities replace the estimates.
	Resume *Progress
	// Exhaustive disables the lossless pruning and enumerates every
	// combination of alternatives (ablation; exponential, small plans only).
	Exhaustive bool
	// Objective selects what the optimizer minimizes: ObjectiveRuntime
	// (default) or ObjectiveMonetary, which weights each platform's time by
	// its monetary rate.
	Objective Objective
	// DefaultLoopIterations is assumed for DoWhile loops without a bound.
	DefaultLoopIterations int
	// Metrics records enumeration time and plans considered; nil skips
	// instrumentation.
	Metrics *telemetry.Registry
	// Trace, when set, is the parent span the optimization annotates with
	// an "optimize" span (phases and per-alternative costs as children and
	// attributes); nil disables tracing.
	Trace *trace.Span
}

// Progress is how far the execution of a plan has come.
type Progress struct {
	// Plan is the execution plan that has been running.
	Plan *core.ExecPlan
	// Executed marks the operators whose stage has completed; their outputs
	// are at rest in the channels Plan's alternatives declare.
	Executed map[*core.Operator]bool
	// Observed holds the output cardinalities the monitor has seen.
	Observed map[*core.Operator]int64
}

// allows reports whether a replan may consider entry ent for op: an executed
// operator only the alternative it ran under, an operator still to run only
// alternatives that fuse no executed operator into its chain.
func (r *Progress) allows(op *core.Operator, ent entry) bool {
	if r.Executed[op] {
		a := r.Plan.Assignments[op]
		return a != nil && a.CoveredBy == nil && a.Alt.Covers == ent.alt.Covers && a.Alt.String() == ent.alt.String()
	}
	return !slices.ContainsFunc(ent.chain, func(c *core.Operator) bool { return r.Executed[c] })
}

// Objective is the optimization goal.
type Objective int

// Optimization objectives.
const (
	// ObjectiveRuntime minimizes estimated wall-clock time.
	ObjectiveRuntime Objective = iota
	// ObjectiveMonetary minimizes estimated monetary cost (platform time
	// weighted by each platform's rate).
	ObjectiveMonetary
)

// weight returns the per-platform cost multiplier under the objective.
func (o Options) weight(platform string) float64 {
	if o.Objective == ObjectiveMonetary && o.Costs != nil {
		return o.Costs.Rate(platform)
	}
	return 1
}

func (o Options) withDefaults() Options {
	if o.Costs == nil && o.Registry != nil {
		o.Costs = DefaultCostTable(o.Registry.Mappings.Platforms())
	}
	if o.DefaultLoopIterations <= 0 {
		o.DefaultLoopIterations = 10
	}
	return o
}

// Optimize compiles a RheemPlan into an execution plan: it inflates the
// plan through the operator mappings, estimates cardinalities and costs,
// plans data movement over the channel conversion graph, and enumerates
// alternatives with lossless pruning, minimizing the estimated cost
// including platform start-up and movement costs. Every plan it returns has
// passed core.ExecPlan.Validate: it runs as written.
func Optimize(p *core.Plan, opts Options) (*core.ExecPlan, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, fmt.Errorf("optimizer: no registry")
	}
	// Help text for the optimizer's metric families (the metrics-lint gate
	// requires every rheem_* family to carry one).
	opts.Metrics.Help("rheem_optimizer_optimizations_total", "Plans successfully optimized.")
	opts.Metrics.Help("rheem_optimizer_enumeration_seconds", "End-to-end optimization latency in seconds.")
	opts.Metrics.Help("rheem_optimizer_plans_considered_total", "Candidate platform assignments enumerated.")
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Registry.Mappings.Validate(p); err != nil {
		return nil, err
	}
	start := time.Now()
	sp := opts.Trace.Start(trace.KindOptimize, "optimize:"+p.Name)
	opts.Trace = sp // loop bodies and phase spans nest under this run
	ep, err := optimize(p, opts, nil, nil)
	if err == nil {
		err = ep.Validate(opts.Registry)
	}
	if err == nil {
		if opts.Resume != nil {
			// Cache markings were computed against the same plan structure.
			ep.CacheOuts = opts.Resume.Plan.CacheOuts
		}
		opts.Metrics.Counter("rheem_optimizer_optimizations_total").Inc()
		opts.Metrics.Histogram("rheem_optimizer_enumeration_seconds", nil).Observe(time.Since(start).Seconds())
		sp.SetFloat("cost_low_ms", ep.Cost.LowMs)
		sp.SetFloat("cost_high_ms", ep.Cost.HighMs)
		sp.SetFloat("confidence", ep.Cost.Confidence)
	} else {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return ep, err
}

// optimize is the recursive worker; loopSeed pins the loop-input estimate
// when optimizing a loop body, and outerCards supplies estimates for
// OuterRef placeholders.
func optimize(p *core.Plan, opts Options, loopSeed *core.CardEstimate, outerCards map[*core.Operator]core.CardEstimate) (*core.ExecPlan, error) {
	inner := opts.Resolve
	resolve := func(op *core.Operator) (core.CardEstimate, bool) {
		if loopSeed != nil && op == p.LoopInput {
			return *loopSeed, true
		}
		if op.OuterRef != nil && outerCards != nil {
			if est, ok := outerCards[op.OuterRef]; ok {
				return est, true
			}
		}
		if inner != nil {
			return inner(op)
		}
		return core.CardEstimate{}, false
	}
	cardSp := opts.Trace.Start("estimate-cards", "estimate-cards")
	var known map[*core.Operator]int64
	if opts.Resume != nil {
		known = opts.Resume.Observed
	}
	cards, err := EstimateCards(p, resolve, known)
	cardSp.SetInt("operators", int64(len(cards)))
	cardSp.End()
	if err != nil {
		return nil, err
	}

	inflated, err := inflate(p, opts, cards)
	if err != nil {
		return nil, err
	}

	enumSp := opts.Trace.Start("enumerate", "enumerate")
	var choice map[*core.Operator]int
	var baseCost float64
	if opts.Exhaustive {
		enumSp.SetAttr("strategy", "exhaustive")
		choice, baseCost, err = enumerateExhaustive(p, opts, inflated, cards)
	} else {
		enumSp.SetAttr("strategy", "pruned")
		choice, baseCost, err = enumeratePruned(p, opts, inflated, cards)
	}
	if err == nil {
		enumSp.SetFloat("base_cost_ms", baseCost)
	}
	enumSp.End()
	if err != nil {
		return nil, err
	}

	ep := &core.ExecPlan{
		Plan:        p,
		Assignments: map[*core.Operator]*core.Assignment{},
		Movements:   map[*core.Operator]*core.MovementPlan{},
		LoopBodies:  map[*core.Operator]*core.ExecPlan{},
	}
	covered := map[*core.Operator]*core.Operator{} // covered op -> holder
	for op, entries := range inflated {
		idx, ok := choice[op]
		if !ok || op.Kind.IsLoop() {
			continue
		}
		ent := entries[idx]
		for _, c := range ent.chain[:max(0, len(ent.chain)-1)] {
			covered[c] = op
		}
		inCard := inputCard(op, ent, cards)
		ep.Assignments[op] = &core.Assignment{
			Alt:     ent.alt,
			OutCard: cards[op],
			CostEst: opts.Costs.AlternativeCost(ent.alt, inCard, cards[op]),
		}
		if opts.Trace != nil {
			// Per-alternative decision record: which implementation won and
			// at what estimated cost, directly on the optimize span.
			opts.Trace.SetAttr("alt."+op.String(),
				fmt.Sprintf("%s cost=%s card=%s", ent.alt.String(), ep.Assignments[op].CostEst, cards[op]))
		}
	}
	for c, holder := range covered {
		ep.Assignments[c] = &core.Assignment{OutCard: cards[c], CoveredBy: holder}
	}

	// Loop operators: optimize bodies recursively and attach.
	total := core.CostInterval{LowMs: baseCost, HighMs: baseCost * 1.3, Confidence: 0.8}
	for _, op := range p.Operators() {
		if !op.Kind.IsLoop() {
			continue
		}
		if r := opts.Resume; r != nil && r.Executed[op] {
			// An executed loop keeps the body plan it ran.
			a := *r.Plan.Assignments[op]
			a.OutCard = cards[op]
			ep.LoopBodies[op], ep.Assignments[op] = r.Plan.LoopBodies[op], &a
			total = total.Add(a.CostEst)
			continue
		}
		seed := core.ExactCard(0)
		if len(op.Inputs()) > 0 {
			seed = cards[op.Inputs()[0]]
		}
		bodyOpts := opts
		bodyOpts.Resume = nil // progress is the top-level plan's
		var bodySp *trace.Span
		if opts.Trace != nil {
			bodySp = opts.Trace.Start(trace.KindOptimize, "optimize-body:"+op.String())
			bodyOpts.Trace = bodySp
		}
		body, err := optimize(op.Body, bodyOpts, &seed, cards)
		bodySp.End()
		if err != nil {
			return nil, fmt.Errorf("optimizer: loop %s body: %w", op, err)
		}
		iters := op.Params.Iterations
		if iters <= 0 {
			iters = op.Params.MaxIterations
		}
		if iters <= 0 {
			iters = opts.DefaultLoopIterations
		}
		bodyCost := body.Cost.Scale(float64(iters))
		ep.LoopBodies[op] = body
		ep.Assignments[op] = &core.Assignment{
			Alt:     core.Alternative{Platform: "", Steps: nil},
			OutCard: cards[op],
			CostEst: bodyCost,
		}
		total = total.Add(bodyCost)
	}

	// Movement planning: one conversion tree per producer whose readers need
	// channels other than the produced one.
	mvSp := opts.Trace.Start("plan-movement", "plan-movement")
	if err := planMovement(p, opts, ep, cards); err != nil {
		mvSp.End()
		return nil, err
	}
	mvSp.SetInt("movements", int64(len(ep.Movements)))
	mvSp.End()
	for _, mv := range ep.Movements {
		total = total.Add(mv.CostEst)
	}
	ep.Cost = total
	return ep, nil
}

// entry is one enumeration unit: a (possibly fused) alternative and the
// logical chain it covers (tail = the op it is registered on; head first).
type entry struct {
	alt   core.Alternative
	chain []*core.Operator // nil or [head..tail]; tail == registered op
}

// head returns the operator whose inputs feed this entry.
func (e entry) head(op *core.Operator) *core.Operator {
	if len(e.chain) > 0 {
		return e.chain[0]
	}
	return op
}

// inflate computes the enumeration entries per operator: all direct
// alternatives plus fused chain alternatives registered at the chain tail,
// restricted in a replan to what the progress so far allows.
func inflate(p *core.Plan, opts Options, cards map[*core.Operator]core.CardEstimate) (map[*core.Operator][]entry, error) {
	out := map[*core.Operator][]entry{}
	for _, op := range p.Operators() {
		if op.Kind.IsLoop() {
			continue
		}
		var entries []entry
		for _, a := range opts.Registry.Mappings.DirectAlternatives(op) {
			entries = append(entries, entry{alt: a})
		}
		out[op] = entries
	}
	// Chain alternatives attach at the tail operator.
	for _, op := range p.Operators() {
		for _, ca := range opts.Registry.Mappings.ChainAlternatives(op) {
			tail := ca.Chain[len(ca.Chain)-1]
			out[tail] = append(out[tail], entry{alt: ca.Alt, chain: ca.Chain})
		}
	}
	for _, op := range p.Operators() {
		if !op.Kind.IsLoop() && len(out[op]) == 0 {
			return nil, fmt.Errorf("optimizer: no implementation for %s", op)
		}
	}
	if r := opts.Resume; r != nil {
		for op, entries := range out {
			out[op] = slices.DeleteFunc(entries, func(ent entry) bool { return !r.allows(op, ent) })
		}
	}
	return out, nil
}

func inputCard(op *core.Operator, ent entry, cards map[*core.Operator]core.CardEstimate) core.CardEstimate {
	h := ent.head(op)
	ins := h.Inputs()
	if len(ins) == 0 {
		return cards[op] // sources: price by their output
	}
	agg := cards[ins[0]]
	for _, in := range ins[1:] {
		agg = agg.Add(cards[in])
	}
	return agg
}

// enumeratePruned is the lossless-pruning enumeration: dynamic programming
// over the plan DAG keeping, per operator, the cheapest partial cost per
// alternative (subplans sharing the same "ending execution operator" are
// pruned to the cheapest, which never discards part of an optimal plan).
// Platform start-up costs are handled exactly by running the DP once per
// subset of candidate platforms and charging each subset's start-up sum.
func enumeratePruned(p *core.Plan, opts Options, inflated map[*core.Operator][]entry, cards map[*core.Operator]core.CardEstimate) (map[*core.Operator]int, float64, error) {
	platforms := candidatePlatforms(inflated)
	if len(platforms) > 16 {
		return nil, 0, fmt.Errorf("optimizer: too many candidate platforms (%d)", len(platforms))
	}
	bestCost := math.Inf(1)
	var bestChoice map[*core.Operator]int
	for mask := 1; mask < 1<<len(platforms); mask++ {
		allowed := map[string]bool{}
		startup := 0.0
		for i, pf := range platforms {
			if mask&(1<<i) != 0 {
				allowed[pf] = true
				startup += opts.Registry.StartupCostMs(pf) * opts.weight(pf)
			}
		}
		// Each platform-subset DP pass evaluates one candidate plan shape.
		opts.Metrics.Counter("rheem_optimizer_plans_considered_total").Inc()
		choice, cost, ok := dpEnumerate(p, opts, inflated, cards, allowed)
		if !ok {
			continue
		}
		// Only charge start-up for platforms the chosen plan actually uses;
		// skip masks that include unused platforms (the exact-used subset is
		// also enumerated and cheaper or equal).
		used := usedPlatforms(inflated, choice)
		if len(used) != len(allowed) {
			continue
		}
		if total := cost + startup; total < bestCost {
			bestCost = total
			bestChoice = choice
		}
	}
	if bestChoice == nil {
		return nil, 0, fmt.Errorf("optimizer: no feasible platform assignment for plan %q", p.Name)
	}
	return bestChoice, bestCost, nil
}

func candidatePlatforms(inflated map[*core.Operator][]entry) []string {
	set := map[string]bool{}
	for _, entries := range inflated {
		for _, e := range entries {
			set[e.alt.Platform] = true
		}
	}
	out := make([]string, 0, len(set))
	for pf := range set {
		out = append(out, pf)
	}
	sort.Strings(out)
	return out
}

func usedPlatforms(inflated map[*core.Operator][]entry, choice map[*core.Operator]int) map[string]bool {
	used := map[string]bool{}
	for op, idx := range choice {
		used[inflated[op][idx].alt.Platform] = true
	}
	return used
}

// dpEnumerate runs the pruning DP restricted to the allowed platforms.
// Movement costs between producer and consumer alternatives use the
// cheapest conversion path for the producer's estimated cardinality.
func dpEnumerate(p *core.Plan, opts Options, inflated map[*core.Operator][]entry, cards map[*core.Operator]core.CardEstimate, allowed map[string]bool) (map[*core.Operator]int, float64, bool) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, 0, false
	}
	const inf = math.MaxFloat64 / 4
	// cost[op][i]: cheapest cost of computing op's output via entry i,
	// counting each producer's subtree once per consumer (exact on trees,
	// a safe overestimate on shared subplans; the executor reuses shared
	// channels at run time regardless).
	cost := map[*core.Operator][]float64{}
	pick := map[*core.Operator][]map[*core.Operator]int{} // per entry: chosen producer entries
	coveredBy := map[*core.Operator]bool{}                // ops consumed inside some chain

	for _, op := range order {
		if op.Kind.IsLoop() {
			continue
		}
		entries := inflated[op]
		cs := make([]float64, len(entries))
		ps := make([]map[*core.Operator]int, len(entries))
		for i, ent := range entries {
			if !allowed[ent.alt.Platform] {
				cs[i] = inf
				continue
			}
			own := opts.Costs.AlternativeCost(ent.alt, inputCard(op, ent, cards), cards[op]).Geomean() * opts.weight(ent.alt.Platform)
			// Pipeline fusion discount: a narrow op whose sole producer is a
			// narrow op on the same platform (no conversion between them)
			// rides the producer's fused chain, so its per-invocation fixed
			// overhead — per-op dispatch and intermediate materialization —
			// is not paid; only its per-tuple UDF cost remains. The discount
			// never exceeds own's fixed part, so totals stay non-negative.
			// Declarative reduce-by rides its producer's chain too: the
			// engines absorb it as the chain's vectorized aggregation tail.
			fuseDisc := 0.0
			fusible := core.FusibleKind(op.Kind) ||
				(op.Kind == core.KindReduceBy && op.UDF.ReduceExpr != nil)
			if fusible && core.InArityOf(op) == 1 {
				fuseDisc = opts.Costs.FusedStepOverheadMs(ent.alt) * opts.weight(ent.alt.Platform)
			}
			picks := map[*core.Operator]int{}
			total := own
			h := ent.head(op)
			feeds := append([]*core.Operator{}, h.Inputs()...)
			for _, bcProducer := range op.Broadcasts() {
				feeds = append(feeds, bcProducer)
			}
			for fi, producer := range feeds {
				if producer == nil {
					continue
				}
				if producer.Kind.IsLoop() {
					// Loop outputs surface as driver collections; their cost
					// is accounted separately via the optimized body.
					_, mv := reach(opts, "collection", ent.alt.InChannels(), cards[producer])
					if mv >= inf {
						total = inf
						break
					}
					total += mv
					continue
				}
				isBroadcast := fi >= len(h.Inputs())
				prodEntries := inflated[producer]
				bestIn := inf
				bestIdx := -1
				for pi, pe := range prodEntries {
					pc := cost[producer]
					if pc == nil || pc[pi] >= inf {
						continue
					}
					accepts := ent.alt.InChannels()
					if isBroadcast {
						accepts = []string{"collection"}
					}
					_, mv := reach(opts, pe.alt.OutChannel(), accepts, cards[producer])
					if mv >= inf {
						continue
					}
					disc := 0.0
					if fuseDisc > 0 && !isBroadcast && mv == 0 &&
						pe.alt.Platform == ent.alt.Platform &&
						core.FusibleKind(producer.Kind) && len(producer.Outputs()) == 1 {
						disc = fuseDisc
					}
					if c := pc[pi] + mv - disc; c < bestIn {
						bestIn = c
						bestIdx = pi
					}
				}
				if bestIdx < 0 {
					total = inf
					break
				}
				total += bestIn
				picks[producer] = bestIdx
			}
			cs[i] = total
			ps[i] = picks
		}
		cost[op] = cs
		pick[op] = ps
	}

	// Roots to realize: sinks plus the loop output (for bodies) plus inputs
	// of loop operators and the loop ops' consumers chain... loops are
	// excluded from DP; their input producers must be realized too.
	roots := rootsToRealize(p)
	choice := map[*core.Operator]int{}
	total := 0.0
	var realize func(op *core.Operator, idx int) bool
	realize = func(op *core.Operator, idx int) bool {
		if _, ok := choice[op]; ok {
			// A shared producer keeps its first decision; the DP priced its
			// subtree once per consumer, which can only overestimate, so the
			// pruning stays lossless with respect to plan selection.
			return true
		}
		choice[op] = idx
		ent := inflated[op][idx]
		for _, c := range ent.chain {
			if c != op {
				coveredBy[c] = true
			}
		}
		for producer, pi := range pick[op][idx] {
			if !realize(producer, pi) {
				return false
			}
		}
		return true
	}
	for _, root := range roots {
		entries := cost[root]
		if entries == nil {
			return nil, 0, false
		}
		best, bestIdx := inf, -1
		for i, c := range entries {
			if c < best {
				best, bestIdx = c, i
			}
		}
		if bestIdx < 0 || best >= inf {
			return nil, 0, false
		}
		total += best
		if !realize(root, bestIdx) {
			return nil, 0, false
		}
	}
	// Drop choices for operators covered by a selected fused chain.
	for op := range coveredBy {
		delete(choice, op)
	}
	return choice, total, true
}

// rootsToRealize returns the operators whose outputs must exist: sinks, the
// loop output of body plans, and the dataflow/broadcast inputs of loop
// operators.
func rootsToRealize(p *core.Plan) []*core.Operator {
	var roots []*core.Operator
	for _, op := range p.Operators() {
		if op.Kind.IsSink() && !op.Kind.IsLoop() {
			roots = append(roots, op)
		}
		if op.Kind.IsLoop() {
			roots = append(roots, op.Inputs()...)
			roots = append(roots, op.Broadcasts()...)
			// Outer operators the loop body references must be realized
			// before the loop starts.
			for _, ref := range op.OuterRefs() {
				roots = append(roots, ref.OuterRef)
			}
		}
	}
	// A body that ends in a loop is realized through that loop's roots: a
	// loop has no enumeration entry of its own.
	if p.LoopOutput != nil && !p.LoopOutput.Kind.IsLoop() {
		roots = append(roots, p.LoopOutput)
	}
	// Broadcast producers of any operator must be realized as well (they
	// may be chosen as producers in pick already; this covers sink-less
	// broadcast-only branches).
	return roots
}

// reach returns the acceptable channel that is cheapest to reach from a
// produced one and the cost of the conversion path to it: the channel itself
// at no cost when it is acceptable, "" at an infeasible cost when nothing
// acceptable is reachable.
func reach(opts Options, from string, acceptable []string, card core.CardEstimate) (string, float64) {
	best, bestCost := "", math.MaxFloat64/4
	for _, to := range acceptable {
		if to == from {
			return to, 0
		}
		if path, err := opts.Registry.Graph.FindPath(from, to, card.Geomean()); err == nil && path.CostMs < bestCost {
			best, bestCost = to, path.CostMs
		}
	}
	return best, bestCost
}

// planMovement computes, per producer, the minimal conversion tree that turns
// its declared out-channel into the form each of its readers takes (see
// core.ExecPlan.Reads), all readers served by the one tree. A reader nothing
// can reach fails the optimization.
func planMovement(p *core.Plan, opts Options, ep *core.ExecPlan, cards map[*core.Operator]core.CardEstimate) error {
	targets := map[*core.Operator][]string{}
	err := ep.Reads(func(producer *core.Operator, accepts []string, reader string) error {
		from := ep.OutChannel(producer)
		to, _ := reach(opts, from, accepts, cards[producer])
		if to == "" {
			return fmt.Errorf("optimizer: %s cannot read %s: no conversion from %q to any of %v", reader, producer, from, accepts)
		}
		if to != from {
			targets[producer] = append(targets[producer], to)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, producer := range p.Operators() {
		ts := targets[producer]
		if len(ts) == 0 {
			continue
		}
		sort.Strings(ts)
		from, card := ep.OutChannel(producer), cards[producer]
		tree, err := opts.Registry.Graph.FindTree(from, ts, card.Geomean())
		if err != nil {
			return fmt.Errorf("optimizer: movement from %s (%s): %w", producer, from, err)
		}
		ep.Movements[producer] = &core.MovementPlan{
			Producer: producer,
			Tree:     tree,
			CostEst:  core.CostInterval{LowMs: treeCost(tree, float64(card.Low)), HighMs: treeCost(tree, float64(card.High)), Confidence: card.Confidence},
		}
	}
	return nil
}

func treeCost(tree *core.ConversionTree, card float64) float64 {
	var total float64
	for _, e := range tree.Edges {
		total += e.CostMs(card)
	}
	return total
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
