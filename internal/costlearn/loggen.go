package costlearn

import (
	"fmt"
	"slices"
	"time"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/optimizer"
)

// LogsFromStats converts a run record into training logs, one per stage
// execution — a loop body's stages once per round — resolving each operator's
// cost key from its assignment under the plan its stage ran and its input
// cardinality from its producers' observed output counts.
func LogsFromStats(record []*core.StageStats) []StageLog {
	var out []StageLog
	for _, st := range record {
		l := StageLog{
			Platform:  st.Stage.Platform,
			RuntimeMs: float64(st.Runtime) / float64(time.Millisecond),
		}
		st.Observations(func(o core.Observation) {
			if o.Assigned == nil || len(o.Assigned.Alt.Steps) == 0 {
				return
			}
			var inCard int64
			for _, producer := range o.Op.Inputs() {
				if ps, ok := st.Ops[producer]; ok {
					inCard += ps.OutCard
				} else if pa := st.Stage.ExecPlan.Assignments[producer]; pa != nil {
					inCard += int64(pa.OutCard.Geomean())
				}
			}
			if len(o.Op.Inputs()) == 0 {
				inCard = o.OutCard // a source reads what it emits
			}
			l.Ops = append(l.Ops, OpLog{
				CostKey: o.Assigned.Alt.Steps[0].Name,
				InCard:  inCard,
				OutCard: o.OutCard,
			})
		})
		if len(l.Ops) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// GenOptions configure the log generator.
type GenOptions struct {
	// Sizes are the input cardinalities to sweep. Default {1e3, 1e4, 1e5}.
	Sizes []int
	// Platforms to force; default: every platform that can run the task.
	Platforms []string
	// Repetitions per configuration. Default 1.
	Repetitions int
}

func (o GenOptions) withDefaults() GenOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1000, 10000, 100000}
	}
	if o.Repetitions <= 0 {
		o.Repetitions = 1
	}
	return o
}

// GenerateLogs creates RHEEM plans over the three practical task topologies
// — pipeline (batch), iterative (ML), merge (SPJA) — with varying input
// sizes and UDF complexities, executes every (plan, platform) combination,
// and returns the collected stage logs (Section 4.5, log generation).
func GenerateLogs(reg *core.Registry, opts GenOptions) ([]StageLog, error) {
	opts = opts.withDefaults()
	platforms := opts.Platforms
	if len(platforms) == 0 {
		platforms = generalPurpose(reg)
	}
	var logs []StageLog
	for _, size := range opts.Sizes {
		for _, platform := range platforms {
			for _, topo := range topologies {
				for _, heavyUDF := range []bool{false, true} {
					for rep := 0; rep < opts.Repetitions; rep++ {
						run, err := runPlanForLogs(reg, pin(buildTopology(topo, size, heavyUDF), platform))
						if err != nil {
							return nil, fmt.Errorf("costlearn: generate %s/%s/n=%d: %w", topo, platform, size, err)
						}
						logs = append(logs, run...)
					}
				}
			}
		}
	}
	return logs, nil
}

// topologies are the task topologies the log generator runs.
var topologies = []string{"pipeline", "iterative", "merge"}

// generalPurpose returns the registered platforms, sorted, that map every
// operator of every topology.
func generalPurpose(reg *core.Registry) (out []string) {
	for _, platform := range reg.Mappings.Platforms() {
		if !slices.ContainsFunc(topologies, func(topo string) bool {
			return reg.Mappings.Validate(pin(buildTopology(topo, 1, false), platform)) != nil
		}) {
			out = append(out, platform)
		}
	}
	return out
}

// pin pins every operator of p, loop bodies included, to platform.
func pin(p *core.Plan, platform string) *core.Plan {
	for _, op := range p.Operators() {
		if op.Kind.IsLoop() {
			pin(op.Body, platform)
			continue
		}
		op.TargetPlatform = platform
	}
	return p
}

func runPlanForLogs(reg *core.Registry, plan *core.Plan) ([]StageLog, error) {
	ep, err := optimizer.Optimize(plan, optimizer.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	ex := &executor.Executor{Registry: reg}
	res, err := ex.Run(ep)
	if err != nil {
		return nil, err
	}
	return LogsFromStats(res.Entries), nil
}

// buildTopology constructs a synthetic plan of the given topology and size.
func buildTopology(topo string, size int, heavyUDF bool) *core.Plan {
	work := 1
	if heavyUDF {
		work = 40
	}
	burn := func(v int64) int64 {
		// Deterministic CPU work proportional to the UDF complexity knob.
		h := v
		for i := 0; i < work; i++ {
			h = h*1099511628211 + 31
		}
		return h
	}
	data := make([]any, size)
	for i := range data {
		data[i] = int64(i)
	}
	switch topo {
	case "pipeline":
		p := core.NewPlan("gen-pipeline")
		src := p.NewOperator(core.KindCollectionSource, "src")
		src.Params.Collection = data
		m := p.NewOperator(core.KindMap, "work")
		m.UDF.Map = func(q any) any { return burn(q.(int64)) }
		f := p.NewOperator(core.KindFilter, "half")
		f.UDF.Pred = func(q any) bool { return q.(int64)%2 == 0 }
		agg := p.NewOperator(core.KindReduceBy, "agg")
		agg.UDF.Key = func(q any) any { return q.(int64) % 100 }
		agg.UDF.Reduce = func(a, b any) any { return a.(int64) + b.(int64) }
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Chain(src, m, f, agg, sink)
		return p

	case "iterative":
		p := core.NewPlan("gen-iterative")
		src := p.NewOperator(core.KindCollectionSource, "init")
		src.Params.Collection = data
		loop := p.NewOperator(core.KindRepeat, "iterate")
		loop.Params.Iterations = 3
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Chain(src, loop, sink)
		body := core.NewPlan("gen-iter-body")
		in := body.NewOperator(core.KindCollectionSource, "carry")
		step := body.NewOperator(core.KindMap, "step")
		step.UDF.Map = func(q any) any { return burn(q.(int64)) % 1000 }
		body.Connect(in, step, 0)
		body.LoopInput = in
		body.LoopOutput = step
		loop.Body = body
		return p

	default: // merge
		p := core.NewPlan("gen-merge")
		left := p.NewOperator(core.KindCollectionSource, "left")
		left.Params.Collection = data
		right := p.NewOperator(core.KindCollectionSource, "right")
		rdata := make([]any, size/2+1)
		for i := range rdata {
			rdata[i] = int64(i * 2)
		}
		right.Params.Collection = rdata
		join := p.NewOperator(core.KindJoin, "join")
		join.UDF.Key = func(q any) any { return q.(int64) % 500 }
		join.UDF.KeyRight = func(q any) any { return q.(int64) % 500 }
		join.Selectivity = 1.0 / 500
		m := p.NewOperator(core.KindMap, "work")
		m.UDF.Map = func(q any) any { return burn(int64(len(q.(core.Record)))) }
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Connect(left, join, 0)
		p.Connect(right, join, 1)
		p.Chain(join, m, sink)
		return p
	}
}
