package optimizer

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// allows reports whether a replan may consider alternative alt for op: an
// executed operator only the alternative it ran under, an operator still to
// run any.
func (r *Progress) allows(op *core.Operator, alt core.Alternative) bool {
	if !r.Executed[op] {
		return true
	}
	a := r.Plan.Assignments[op]
	return a != nil && a.Alt.String() == alt.String()
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

// defaultLoopIterations is assumed for DoWhile loops without a bound.
const defaultLoopIterations = 10

func (o Options) withDefaults() Options {
	if o.Costs == nil && o.Registry != nil {
		o.Costs = DefaultCostTable(o.Registry)
	}
	return o
}

// Optimize compiles a RheemPlan into an execution plan: it inflates the
// plan through the operator mappings, estimates cardinalities and costs,
// and enumerates alternatives with lossless pruning, minimizing planCost:
// operator costs, one conversion tree per producer, loop bodies and
// platform start-up. The plan's Cost is that minimum. Every plan it returns
// has passed core.ExecPlan.Validate: it runs as written.
func Optimize(p *core.Plan, opts Options) (*core.ExecPlan, error) {
	opts = opts.withDefaults()
	if opts.Registry == nil {
		return nil, fmt.Errorf("optimizer: no registry")
	}
	// Help text for the optimizer's metric families (the metrics-lint gate
	// requires every rheem_* family to carry one).
	opts.Metrics.Help("rheem_optimizer_optimizations_total", "Plans successfully optimized.")
	opts.Metrics.Help("rheem_optimizer_enumeration_seconds", "End-to-end optimization latency in seconds.")
	opts.Metrics.Help("rheem_optimizer_plans_considered_total", "Plans the enumeration priced: each extension of a kept partial plan by one alternative (each complete plan when exhaustive).")
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Registry.Mappings.Validate(p); err != nil {
		return nil, err
	}
	start := time.Now()
	sp := opts.Trace.Start(trace.KindOptimize, "optimize:"+p.Name)
	opts.Trace = sp // loop bodies and phase spans nest under this run
	ep, err := optimize(p, opts, map[string]quote{}, 1, nil, nil)
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
		sp.SetFloat("cost_ms", ep.Cost.Geomean())
		sp.SetFloat("confidence", ep.Cost.Confidence)
	} else {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return ep, err
}

// optimize is the recursive worker; quotes and rounds are the pricer's (see
// pricer), loopSeed pins the loop-input estimate when optimizing a loop body,
// and outerCards supplies estimates for OuterRef placeholders.
func optimize(p *core.Plan, opts Options, quotes map[string]quote, rounds int, loopSeed *core.CardEstimate, outerCards map[*core.Operator]core.CardEstimate) (*core.ExecPlan, error) {
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

	ep := &core.ExecPlan{
		Plan:        p,
		Assignments: map[*core.Operator]*core.Assignment{},
		Movements:   map[*core.Operator]*core.MovementPlan{},
		LoopBodies:  map[*core.Operator]*core.ExecPlan{},
	}
	pr := newPricer(opts, cards, quotes, rounds)
	// Each operator's candidates: its registered alternatives, restricted in
	// a replan to what the progress so far allows; a loop's one, priced by
	// its optimized body, whose outer references are then read in the
	// channels the body chose.
	cands := map[*core.Operator][]*core.Assignment{}
	for _, op := range p.Operators() {
		if !op.Kind.IsLoop() {
			alts := opts.Registry.Mappings.Alternatives(op)
			if len(alts) == 0 {
				return nil, fmt.Errorf("optimizer: no implementation for %s", op)
			}
			if r := opts.Resume; r != nil {
				alts = slices.DeleteFunc(alts, func(alt core.Alternative) bool { return !r.allows(op, alt) })
			}
			as := make([]core.Assignment, len(alts))
			for i, alt := range alts {
				as[i] = core.Assignment{Alt: alt, OutCard: cards[op], CostEst: opts.Costs.AlternativeCost(alt, inputCard(op, cards), cards[op])}
				cands[op] = append(cands[op], &as[i])
			}
			continue
		}
		if r := opts.Resume; r != nil && r.Executed[op] {
			// An executed loop keeps the body plan it ran.
			a := *r.Plan.Assignments[op]
			a.OutCard = cards[op]
			ep.LoopBodies[op], cands[op] = r.Plan.LoopBodies[op], []*core.Assignment{&a}
			continue
		}
		seed := core.ExactCard(0)
		if len(op.Inputs()) > 0 {
			seed = cards[op.Inputs()[0]]
		}
		iters := cmp.Or(max(op.Params.Iterations, 0), max(op.Params.MaxIterations, 0), defaultLoopIterations)
		bodyOpts := opts
		bodyOpts.Resume = nil // progress is the top-level plan's
		var bodySp *trace.Span
		if opts.Trace != nil {
			bodySp = opts.Trace.Start(trace.KindOptimize, "optimize-body:"+op.String())
			bodyOpts.Trace = bodySp
		}
		body, err := optimize(op.Body, bodyOpts, quotes, rounds*iters, &seed, cards)
		bodySp.End()
		if err != nil {
			return nil, fmt.Errorf("optimizer: loop %s body: %w", op, err)
		}
		ep.LoopBodies[op] = body
		// Its rounds less the boots the body carries: planCost prices each once.
		cost := body.Cost.Geomean() * float64(iters)
		for _, pf := range body.Platforms() {
			cost -= pr.boot(pf)
		}
		cands[op] = []*core.Assignment{{OutCard: cards[op], CostEst: core.CostInterval{LowMs: cost, HighMs: cost, Confidence: body.Cost.Confidence}}}
	}

	enumerate, strategy := pr.enumerate, "pruned"
	if opts.Exhaustive {
		enumerate, strategy = pr.enumerateExhaustive, "exhaustive"
	}
	enumSp := opts.Trace.Start("enumerate", "enumerate")
	enumSp.SetAttr("strategy", strategy)
	cost, err := enumerate(ep, cands)
	enumSp.SetFloat("cost_ms", cost)
	enumSp.End()
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		// Per-alternative decision record: which implementation won and at
		// what estimated cost, directly on the optimize span.
		for op, a := range ep.Assignments {
			if !op.Kind.IsLoop() {
				opts.Trace.SetAttr("alt."+op.String(), fmt.Sprintf("%s cost=%s card=%s", a.Alt.String(), a.CostEst, a.OutCard))
			}
		}
	}
	mvSp := opts.Trace.Start("plan-movement", "plan-movement")
	ep.Cost, err = pr.planCost(ep)
	mvSp.SetInt("movements", int64(len(ep.Movements)))
	mvSp.End()
	return ep, err
}

func inputCard(op *core.Operator, cards map[*core.Operator]core.CardEstimate) core.CardEstimate {
	ins := op.Inputs()
	if len(ins) == 0 {
		return cards[op] // sources: price by their output
	}
	agg := cards[ins[0]]
	for _, in := range ins[1:] {
		agg = agg.Add(cards[in])
	}
	return agg
}

// pricer prices the parts of one plan's cost (see planCost) and memoizes the
// conversion-graph searches that the enumeration repeats. Target channels
// and platforms are numbered as they are first met, so that a set of them
// is a bit mask.
type pricer struct {
	opts                Options
	cards               map[*core.Operator]core.CardEstimate
	quotes              map[string]quote // read so far; shared by the plan and its loop bodies
	rounds              int              // runs of the plan per run of the whole plan: 1, × iterations in a body
	channels, platforms []string
	paths               map[memoKey]float64 // the cheapest path to one target
	trees               map[memoKey]core.MovementPlan
	err                 error // more than 64 channels or platforms to number
}

// memoKey is a search of the conversion graph from a producer's channel to
// a set of target channels, for the producer's cardinality.
type memoKey struct {
	from    string
	targets uint64
	card    core.CardEstimate
}

func newPricer(opts Options, cards map[*core.Operator]core.CardEstimate, quotes map[string]quote, rounds int) *pricer {
	return &pricer{opts: opts, cards: cards, quotes: quotes, rounds: rounds, paths: map[memoKey]float64{}, trees: map[memoKey]core.MovementPlan{}}
}

// quote is a platform's start-up quote (core.StartupCoster) at its objective
// weight: the context boot and the per-stage latency. The pricer reads it once
// per optimization, so that the boot a loop body carries and the boot its
// loop takes out are one number.
type quote struct{ boot, stage float64 }

func (pr *pricer) quote(platform string) quote {
	q, ok := pr.quotes[platform]
	if !ok {
		boot, stage := pr.opts.Registry.StartupCostMs(platform)
		q = quote{boot * pr.opts.weight(platform), stage * pr.opts.weight(platform)}
		pr.quotes[platform] = q
	}
	return q
}

// boot is a platform's boot quote as this plan carries it (see planCost).
func (pr *pricer) boot(platform string) float64 {
	return pr.quote(platform).boot / float64(pr.rounds)
}

// planCost prices a complete plan. It is the objective the enumeration
// minimises and the cost the plan reports. Its parts:
//   - each operator's alternative, the geometric mean of its interval times
//     its platform's objective weight, less what fusion saves;
//   - each loop's body cost times its iterations, less the context boots
//     the body carries (the loop's assignment);
//   - one conversion tree per producer, serving every reader that
//     core.ExecPlan.Reads lists at the channel target picks, at the cost
//     the tree search minimised: that of the geometric-mean cardinality;
//   - the per-stage start-up of each platform an operator of the plan is
//     placed on (core.StartupCoster), times the rounds of a loop body;
//   - the context boot of each platform the plan or its loop bodies use,
//     once (a body carries it divided by its rounds, so that its own
//     enumeration weighs it as the whole plan does).
//
// It plans ep.Movements on the way. The returned interval is the point
// total, at the least confidence of its parts.
func (pr *pricer) planCost(ep *core.ExecPlan) (core.CostInterval, error) {
	if err := pr.planMovement(ep); err != nil {
		return core.CostInterval{}, err
	}
	var total core.CostInterval
	add := func(ms, confidence float64) {
		total = total.Add(core.CostInterval{LowMs: ms, HighMs: ms, Confidence: confidence})
	}
	var used []string
	for _, op := range ep.Plan.Operators() {
		a := ep.Assignments[op]
		add(a.CostEst.Geomean()*pr.opts.weight(a.Alt.Platform)-pr.fusion(ep, op), a.CostEst.Confidence)
		if mv := ep.Movements[op]; mv != nil {
			add(mv.Tree.CostMs, mv.CostEst.Confidence)
		}
		if pf := a.Alt.Platform; pf != "" && !slices.Contains(used, pf) {
			used = append(used, pf)
			add(pr.quote(pf).stage, 1)
		}
	}
	for _, pf := range ep.Platforms() {
		add(pr.boot(pf), 1)
	}
	return total, nil
}

// fusion returns what op saves by riding its producer's fused chain: a
// narrow operator (or a declarative reduce-by, which the engines absorb as
// the chain's aggregation tail) whose sole producer is a narrow operator
// placed on the same platform and read without conversion pays no per-op
// dispatch or intermediate materialization, only its per-tuple cost. The
// discount never exceeds op's fixed part, so totals stay non-negative.
func (pr *pricer) fusion(ep *core.ExecPlan, op *core.Operator) float64 {
	if !op.Kind.IsNarrow() && (op.Kind != core.KindReduceBy || op.UDF.ReduceExpr == nil) {
		return 0
	}
	producer, alt := op.Inputs()[0], ep.Assignments[op].Alt
	if !producer.Kind.IsNarrow() || len(producer.Outputs()) != 1 || ep.PlatformOf(producer) != alt.Platform ||
		!slices.Contains(ep.InChannels(op), ep.OutChannel(producer)) {
		return 0
	}
	return pr.opts.Costs.FusedStepOverheadMs(alt) * pr.opts.weight(alt.Platform)
}

// blocked is the target set of a reader that cannot be served.
const blocked = ^uint64(0)

// target returns the target set that a reader accepting the acceptable
// channels adds to the tree of a producer making from: none when it reads
// from as it is, else the acceptable channel cheapest to reach, blocked when
// none is reachable.
func (pr *pricer) target(from string, acceptable []string, card core.CardEstimate) uint64 {
	best, bestCost := blocked, math.Inf(1)
	for _, to := range acceptable {
		if to == from {
			return 0
		}
		k := memoKey{from, pr.bit(&pr.channels, to), card}
		c, ok := pr.paths[k]
		if !ok {
			c = math.Inf(1)
			if path, err := pr.opts.Registry.Graph.FindPath(from, to, card.Geomean()); err == nil {
				c = path.CostMs
			}
			pr.paths[k] = c
		}
		if c < bestCost {
			best, bestCost = k.targets, c
		}
	}
	return best
}

// bit returns the bit that stands for name in a set over names, numbering
// it if it is new.
func (pr *pricer) bit(names *[]string, name string) uint64 {
	i := slices.Index(*names, name)
	if i < 0 {
		if i = len(*names); i == 64 {
			pr.err = fmt.Errorf("optimizer: more than 64 channels or platforms in one plan")
			return 0
		}
		*names = append(*names, name)
	}
	return 1 << i
}

// tree returns the movement over the minimal conversion tree from a
// producer's channel to a non-empty set of target channels, priced for the
// producer's cardinality.
func (pr *pricer) tree(from string, targets uint64, card core.CardEstimate) (core.MovementPlan, error) {
	k := memoKey{from, targets, card}
	if mv, ok := pr.trees[k]; ok {
		return mv, nil
	}
	var ts []string
	for i, ch := range pr.channels {
		if targets&(1<<i) != 0 {
			ts = append(ts, ch)
		}
	}
	sort.Strings(ts)
	t, err := pr.opts.Registry.Graph.FindTree(from, ts, card.Geomean())
	if err != nil {
		return core.MovementPlan{}, err
	}
	var lo, hi float64
	for _, e := range t.Edges {
		lo, hi = lo+e.CostMs(float64(card.Low)), hi+e.CostMs(float64(card.High))
	}
	pr.trees[k] = core.MovementPlan{Tree: t, CostEst: core.CostInterval{LowMs: lo, HighMs: hi, Confidence: card.Confidence}}
	return pr.trees[k], nil
}

// treeCost returns what the minimal tree from a producer's channel to a set
// of target channels costs: for one target the cheapest path, which target
// has found already.
func (pr *pricer) treeCost(from string, targets uint64, card core.CardEstimate) (float64, bool) {
	if targets&(targets-1) == 0 {
		return pr.paths[memoKey{from, targets, card}], true
	}
	if mv, err := pr.tree(from, targets, card); err == nil {
		return mv.Tree.CostMs, true
	}
	return 0, false
}

// planMovement plans, per producer, the one conversion tree that turns its
// declared out-channel into the form each of its readers takes (see
// core.ExecPlan.Reads). A reader nothing can reach fails the optimization.
func (pr *pricer) planMovement(ep *core.ExecPlan) error {
	targets := map[*core.Operator]uint64{}
	err := ep.Reads(func(producer *core.Operator, accepts []string, reader string) error {
		from := ep.OutChannel(producer)
		t := pr.target(from, accepts, pr.cards[producer])
		if t == blocked {
			return fmt.Errorf("optimizer: %s cannot read %s: no conversion from %q to any of %v", reader, producer, from, accepts)
		}
		targets[producer] |= t
		return pr.err
	})
	if err != nil {
		return err
	}
	clear(ep.Movements)
	for _, producer := range ep.Plan.Operators() {
		if targets[producer] == 0 {
			continue
		}
		from := ep.OutChannel(producer)
		mv, err := pr.tree(from, targets[producer], pr.cards[producer])
		if err != nil {
			return fmt.Errorf("optimizer: movement from %s (%s): %w", producer, from, err)
		}
		mv.Producer = producer
		ep.Movements[producer] = &mv
	}
	return nil
}

// maxPartialPlans bounds the partial plans the enumeration keeps at one step.
const maxPartialPlans = 1 << 16

// enumerate finds the assignment of least planCost in one dynamic-programming
// pass and leaves it in ep.Assignments; it returns the cost it minimised. ep
// must carry its loops' bodies.
//
// Operators are placed in post-order from the sinks, so that each branch
// closes early. The state (RHEEMix's footprint) of a partial plan is the
// candidate of every open producer, one with a reader still to place, with
// the target channels its placed readers asked for, the set of platforms
// operators are placed on and the set booted. Of the partial plans in one
// state only the cheapest is kept: what the rest of the plan adds depends on
// nothing else, so the pruning is lossless. A producer's tree is priced once,
// when its last reader closes it, a platform's per-stage start-up when an
// operator first places on it, and its boot when an operator or a loop body
// first uses it.
func (pr *pricer) enumerate(ep *core.ExecPlan, cands map[*core.Operator][]*core.Assignment) (float64, error) {
	// A reader whose channels no choice decides (a broadcast, a loop's
	// input, an outer reference, the loop output: see core.ExecPlan.Reads)
	// is priced with its producer; every other one reads an input port.
	collection := []string{"collection"}
	fixedReaders := map[*core.Operator][][]string{ep.Plan.LoopOutput: {collection}}
	pending := map[*core.Operator]int{}
	for _, e := range ep.Plan.Edges() {
		if e.Broadcast || e.To.Kind.IsLoop() {
			fixedReaders[e.From] = append(fixedReaders[e.From], collection)
		} else {
			pending[e.From]++
		}
	}
	for _, op := range ep.Plan.Operators() {
		for _, ref := range op.OuterRefs() {
			fixedReaders[ref.OuterRef] = append(fixedReaders[ref.OuterRef], ep.LoopBodies[op].InChannels(ref))
		}
	}

	type slot struct{ cand, targets uint64 }
	type partial struct {
		cost         float64
		used, booted uint64
		back, cand   int
	}
	type candidate struct {
		own, stage             float64
		platform, boots, fixed uint64    // the platform's bit; the platforms it boots; the fixed readers' targets
		target                 []uint64  // per input port, per producer candidate
		disc                   []float64 // fusion discount, per producer candidate on port 0
	}
	order := placementOrder(ep.Plan)
	var open []*core.Operator // in slot order
	states, slots := []partial{{}}, []slot(nil)
	trail := make([][]partial, len(order))
	index := map[string]int{}
	var key []byte
	considered := 0
	for i, op := range order {
		ins := op.Inputs()
		if op.Kind.IsLoop() {
			ins = nil // a loop reads its input as a collection
		}
		cs := make([]candidate, len(cands[op]))
		for c, a := range cands[op] {
			ep.Assignments[op] = a
			cs[c].own = a.CostEst.Geomean() * pr.opts.weight(a.Alt.Platform)
			if pf := a.Alt.Platform; pf != "" {
				cs[c].platform, cs[c].stage = pr.bit(&pr.platforms, pf), pr.quote(pf).stage
			}
			cs[c].boots = cs[c].platform
			if body := ep.LoopBodies[op]; body != nil {
				for _, pf := range body.Platforms() {
					cs[c].boots |= pr.bit(&pr.platforms, pf)
				}
			}
			for _, acc := range fixedReaders[op] {
				cs[c].fixed |= pr.target(ep.OutChannel(op), acc, pr.cards[op])
			}
			for port, producer := range ins {
				for _, pa := range cands[producer] {
					ep.Assignments[producer] = pa
					cs[c].target = append(cs[c].target, pr.target(ep.OutChannel(producer), ep.InChannels(op), pr.cards[producer]))
					if port == 0 {
						cs[c].disc = append(cs[c].disc, pr.fusion(ep, op))
					}
				}
			}
		}
		for _, producer := range ins {
			pending[producer]--
		}
		ext := append(slices.Clip(open), op)
		var closing, keep []int
		var stillOpen []*core.Operator
		for j, o := range ext {
			if pending[o] == 0 {
				closing = append(closing, j)
			} else {
				keep, stillOpen = append(keep, j), append(stillOpen, o)
			}
		}

		var next []partial
		var nextSlots []slot
		clear(index)
		buf := make([]slot, len(ext))
		for si, s := range states {
			for c, cand := range cs {
				if cand.fixed == blocked {
					continue
				}
				considered++
				cost, used, booted := s.cost+cand.own, s.used|cand.platform, s.booted|cand.boots
				if used != s.used {
					cost += cand.stage
				}
				for b := booted &^ s.booted; b != 0; b &= b - 1 {
					cost += pr.boot(pr.platforms[bits.TrailingZeros64(b)])
				}
				copy(buf, slots[si*len(open):])
				buf[len(open)] = slot{uint64(c), cand.fixed}
				feasible := true
				at := 0
				for port, producer := range ins {
					j := slices.Index(open, producer)
					pc := int(buf[j].cand)
					buf[j].targets |= cand.target[at+pc]
					feasible = feasible && cand.target[at+pc] != blocked
					at += len(cands[producer])
					if port == 0 {
						cost -= cand.disc[pc]
					}
				}
				for _, j := range closing {
					if t := buf[j].targets; feasible && t != 0 {
						ep.Assignments[ext[j]] = cands[ext[j]][buf[j].cand]
						c, ok := pr.treeCost(ep.OutChannel(ext[j]), t, pr.cards[ext[j]])
						cost, feasible = cost+c, ok
					}
				}
				if !feasible {
					continue
				}
				key = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(key[:0], used), booted)
				for _, j := range keep {
					key = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(key, buf[j].cand), buf[j].targets)
				}
				if k, ok := index[string(key)]; ok {
					if cost < next[k].cost {
						next[k] = partial{cost, used, booted, si, c}
					}
					continue
				}
				if len(next) == maxPartialPlans {
					return 0, fmt.Errorf("optimizer: plan %q needs more than %d partial plans at %s", ep.Plan.Name, maxPartialPlans, op)
				}
				index[string(key)] = len(next)
				next = append(next, partial{cost, used, booted, si, c})
				for _, j := range keep {
					nextSlots = append(nextSlots, buf[j])
				}
			}
		}
		if pr.err != nil {
			return 0, pr.err
		}
		if len(next) == 0 {
			return 0, fmt.Errorf("optimizer: no feasible platform assignment for plan %q", ep.Plan.Name)
		}
		open, states, slots, trail[i] = stillOpen, next, nextSlots, next
	}
	pr.opts.Metrics.Counter("rheem_optimizer_plans_considered_total").Add(float64(considered))

	best := 0
	for k, s := range states {
		if s.cost < states[best].cost {
			best = k
		}
	}
	cost := states[best].cost
	for i := len(order) - 1; i >= 0; i-- {
		s := trail[i][best]
		ep.Assignments[order[i]] = cands[order[i]][s.cand]
		best = s.back
	}
	return cost, nil
}

// placementOrder lists a plan's operators in post-order from its sinks and a
// body's loop output: each one after its inputs, its broadcasts and, for a
// loop, the outer operators its body reads, so that a branch is placed whole
// before the next one begins.
func placementOrder(p *core.Plan) []*core.Operator {
	order := make([]*core.Operator, 0, len(p.Operators()))
	seen := make(map[*core.Operator]bool, len(p.Operators()))
	var visit func(op *core.Operator)
	visit = func(op *core.Operator) {
		if op == nil || seen[op] {
			return
		}
		seen[op] = true
		for _, in := range slices.Concat(op.Inputs(), op.Broadcasts()) {
			visit(in)
		}
		for _, ref := range op.OuterRefs() {
			visit(ref.OuterRef)
		}
		order = append(order, op)
	}
	for _, op := range slices.Concat(p.Sinks(), []*core.Operator{p.LoopOutput}, p.Operators()) {
		visit(op)
	}
	return order
}
