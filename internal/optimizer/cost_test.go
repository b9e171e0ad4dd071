package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"rheem/internal/core"
	"rheem/internal/trace"
)

// sharedShapes builds the three plans whose shared producers a per-edge
// enumeration priced once per consumer: a source fanned out to two sinks, a
// diamond (source → two maps → union) and a self-join of a scoped source,
// the shape of BigDansing's scoped.IEJoin(scoped, …).
var sharedShapes = map[string]func(n int) *core.Plan{
	"fan-out": func(n int) *core.Plan {
		p := core.NewPlan("fan-out")
		src := source(p, n)
		p.Connect(src, p.NewOperator(core.KindCollectionSink, "a"), 0)
		p.Connect(src, p.NewOperator(core.KindCollectionSink, "b"), 0)
		return p
	},
	"diamond": func(n int) *core.Plan {
		p := core.NewPlan("diamond")
		src := source(p, n)
		u := p.NewOperator(core.KindUnion, "u")
		p.Connect(p.Chain(src, mapOp(p, "l")), u, 0)
		p.Connect(p.Chain(src, mapOp(p, "r")), u, 1)
		p.Connect(u, p.NewOperator(core.KindCollectionSink, "out"), 0)
		return p
	},
	"self-join": func(n int) *core.Plan {
		p := core.NewPlan("self-join")
		scope := p.Chain(source(p, n), filterOp(p, "scope"))
		p.Chain(joinOp(p, scope, scope), p.NewOperator(core.KindCollectionSink, "out"))
		return p
	},
}

func source(p *core.Plan, n int) *core.Operator {
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = make([]any, n)
	return src
}

func mapOp(p *core.Plan, label string) *core.Operator {
	m := p.NewOperator(core.KindMap, label)
	m.UDF.Map = func(q any) any { return q }
	return m
}

func filterOp(p *core.Plan, label string) *core.Operator {
	f := p.NewOperator(core.KindFilter, label)
	f.UDF.Pred = func(any) bool { return true }
	return f
}

// joinOp joins l with r; l == r is a self-join, two edges from one producer.
func joinOp(p *core.Plan, l, r *core.Operator) *core.Operator {
	j := p.NewOperator(core.KindJoin, "join")
	j.UDF.Key = func(q any) any { return q }
	p.Connect(l, j, 0)
	p.Connect(r, j, 1)
	return j
}

// randomSharedPlan builds a plan of at most seven operators from one source
// of n quanta: a narrow step, a fan-out to a second sink, a diamond, a
// self-join, a broadcast into a map, or a Repeat whose body reads its loop
// variable and the current head of the outer plan.
func randomSharedPlan(rng *rand.Rand, id, n int) *core.Plan {
	p := core.NewPlan(fmt.Sprintf("shared-%d", id))
	src := source(p, n)
	head := src
	for len(p.Operators()) < 5 {
		switch rng.Intn(7) {
		case 0:
			head = p.Chain(head, mapOp(p, "m"))
		case 1:
			p.Connect(head, p.NewOperator(core.KindCollectionSink, "side"), 0)
		case 2:
			u := p.NewOperator(core.KindUnion, "u")
			p.Connect(p.Chain(head, filterOp(p, "l")), u, 0)
			p.Connect(head, u, 1)
			head = u
		case 3:
			head = joinOp(p, head, head)
		case 4:
			m := mapOp(p, "bc")
			p.Connect(head, m, 0)
			p.Broadcast(src, m)
			head = m
		case 5:
			body := core.NewPlan("body")
			in := body.NewOperator(core.KindCollectionSource, "var")
			ref := body.NewOperator(core.KindCollectionSource, "outer")
			ref.OuterRef = head
			u := body.NewOperator(core.KindUnion, "u")
			body.Connect(in, u, 0)
			body.Connect(ref, u, 1)
			body.LoopInput, body.LoopOutput = in, body.Chain(u, filterOp(body, "step"))
			loop := p.NewOperator(core.KindRepeat, "loop")
			loop.Params.Iterations = 1 + rng.Intn(4)
			loop.Body = body
			head = p.Chain(source(p, 1), loop)
		default:
			head = p.Chain(head, filterOp(p, "f"))
		}
	}
	p.Connect(head, p.NewOperator(core.KindCollectionSink, "out"), 0)
	return p
}

// enumeratedCost returns the cost the top-level enumeration minimised, as
// its span records it.
func enumeratedCost(t *testing.T, tr *trace.Tracer) float64 {
	t.Helper()
	for _, c := range tr.Snapshot().Find(trace.KindOptimize).Children {
		if c.Name == "enumerate" {
			v, _ := c.Attr("cost_ms")
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("enumerate span cost_ms = %q", v)
			}
			return f
		}
	}
	t.Fatal("no enumerate span")
	return 0
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestReportedCostIsTheMinimisedCost: the cost a plan reports is the number
// the enumeration minimised, planCost of the plan it returned, and the
// optimum of the exhaustive enumeration, under both objectives, on plans
// whose producers are shared (fan-outs, diamonds, self-joins, broadcasts,
// the outer references of a loop body).
func TestReportedCostIsTheMinimisedCost(t *testing.T) {
	env := newTestEnv(t)
	type named struct {
		name  string
		build func() *core.Plan
	}
	var plans []named
	for shape, build := range sharedShapes {
		for n := 10; n <= 1_000_000; n *= 10 {
			plans = append(plans, named{fmt.Sprintf("%s n=%d", shape, n), func() *core.Plan { return build(n) }})
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 24; i++ {
		seed, n := rng.Int63(), []int{10, 1000, 100_000}[i%3]
		plans = append(plans, named{fmt.Sprintf("random %d n=%d", i, n), func() *core.Plan {
			return randomSharedPlan(rand.New(rand.NewSource(seed)), i, n)
		}})
	}
	for _, objective := range []Objective{ObjectiveRuntime, ObjectiveMonetary} {
		for _, pl := range plans {
			opts := env.opts()
			opts.Objective = objective
			tr := trace.New(trace.KindJob, "job")
			opts.Trace = tr.Root()
			p := pl.build()
			ep, err := Optimize(p, opts)
			if err != nil {
				t.Fatalf("objective %d, %s: %v\n%s", objective, pl.name, err, p)
			}
			reported, minimised := ep.Cost.Geomean(), enumeratedCost(t, tr)

			cards, err := EstimateCards(p, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			again := *ep
			again.Movements = map[*core.Operator]*core.MovementPlan{}
			priced, err := newPricer(opts.withDefaults(), cards, map[string]quote{}, 1).planCost(&again)
			if err != nil {
				t.Fatalf("objective %d, %s: planCost: %v", objective, pl.name, err)
			}

			opts.Trace, opts.Exhaustive = nil, true
			best, err := Optimize(pl.build(), opts)
			if err != nil {
				t.Fatalf("objective %d, %s: exhaustive: %v", objective, pl.name, err)
			}
			exhaustive := best.Cost.Geomean()

			if !sameCost(reported, minimised) || !sameCost(reported, priced.LowMs) || !sameCost(reported, exhaustive) {
				t.Errorf("objective %d, %s: reported %.9g, minimised %.9g, planCost %.9g, exhaustive optimum %.9g\n%s",
					objective, pl.name, reported, minimised, priced.LowMs, exhaustive, ep)
			}
		}
	}
}
