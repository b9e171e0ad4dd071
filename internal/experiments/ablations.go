package experiments

import (
	"fmt"
	"math"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/costlearn"
	"rheem/internal/datagen"
	"rheem/internal/optimizer"
	"rheem/internal/tasks"
)

// AblationPruning compares the lossless-pruning enumeration against the
// exhaustive one on WordCount-sized plans: plan costs must agree (the
// pruning is lossless) while optimization time diverges.
func AblationPruning(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		return nil, err
	}
	if err := ctx.DFS.WriteLines("ab.txt", datagen.Words(opts.n(5000), 9, 5000, opts.Seed)); err != nil {
		return nil, err
	}
	var rows []Row
	for _, mode := range []string{"pruned", "exhaustive"} {
		b, _ := tasks.WordCount(ctx, "dfs://ab.txt")
		var cost float64
		ms, err := timed(func() error {
			var execOpts []rheem.ExecOption
			if mode == "exhaustive" {
				execOpts = append(execOpts, rheem.WithExhaustiveEnumeration())
			}
			ep, err := ctx.Optimize(b.Plan(), execOpts...)
			if err != nil {
				return err
			}
			cost = ep.Cost.Geomean()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ablation pruning %s: %w", mode, err)
		}
		rows = append(rows, Row{
			Figure: "abl-prune", Config: "wordcount", System: mode, Ms: ms,
			Note: fmt.Sprintf("plan cost %.1f", cost),
		})
	}
	return rows, nil
}

// AblationMovement quantifies the channel-conversion-graph planner: the
// chosen conversion tree for a relation feeding two different platforms vs
// the naive per-consumer direct paths.
func AblationMovement(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		return nil, err
	}
	g := ctx.Registry.Graph
	card := float64(opts.n(100000))
	tree, err := g.FindTree("relation", []string{"rdd", "dataset"}, card)
	if err != nil {
		return nil, err
	}
	pathA, err := g.FindPath("relation", "rdd", card)
	if err != nil {
		return nil, err
	}
	pathB, err := g.FindPath("relation", "dataset", card)
	if err != nil {
		return nil, err
	}
	return []Row{
		{Figure: "abl-move", Config: "relation->rdd+dataset", System: "conversion tree", Ms: tree.CostMs,
			Note: fmt.Sprintf("%d conversions", len(tree.Edges))},
		{Figure: "abl-move", Config: "relation->rdd+dataset", System: "naive per-path", Ms: pathA.CostMs + pathB.CostMs,
			Note: fmt.Sprintf("%d conversions", len(pathA.Steps)+len(pathB.Steps))},
	}, nil
}

// AblationLearnedCosts compares optimizer plan quality with the default
// (hand-shaped) cost table against one learned from execution logs: both
// tables are asked to pick platforms for small and large pipelines, and the
// rows report whether the learned table preserves the correct crossover.
func AblationLearnedCosts(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	// Train on the real simulated engines (with their startup latencies and
	// capacity model); a fast-simulation training set would have nothing to
	// learn about overheads.
	ctx, err := newCtx()
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	logs, err := costlearn.GenerateLogs(ctx.Registry, costlearn.GenOptions{
		Sizes: []int{opts.n(500), opts.n(20000)}, Platforms: []string{"streams", "spark"},
	})
	if err != nil {
		return nil, err
	}
	base := optimizer.DefaultCostTable(ctx.Registry)
	learned, loss, err := costlearn.Learn(logs, base, costlearn.Options{Population: 60, Generations: 150})
	if err != nil {
		return nil, err
	}

	choose := func(costs *optimizer.CostTable, n int) (string, error) {
		p := core.NewPlan("abl")
		data := make([]any, n)
		for i := range data {
			data[i] = int64(i)
		}
		src := p.NewOperator(core.KindCollectionSource, "src")
		src.Params.Collection = data
		m := p.NewOperator(core.KindMap, "m")
		m.UDF.Map = func(q any) any { return q }
		sink := p.NewOperator(core.KindCollectionSink, "out")
		p.Chain(src, m, sink)
		ep, err := optimizer.Optimize(p, optimizer.Options{Registry: ctx.Registry, Costs: costs})
		if err != nil {
			return "", err
		}
		return ep.PlatformOf(m), nil
	}
	var rows []Row
	for _, cfg := range []struct {
		name string
		n    int
	}{{"small(1k)", opts.n(1000)}, {"large(5M)", 5_000_000}} {
		d, err := choose(base, cfg.n)
		if err != nil {
			return nil, err
		}
		l, err := choose(learned, cfg.n)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Row{Figure: "abl-learn", Config: cfg.name, System: "default table", Ms: math.NaN(), Note: "picks " + d},
			Row{Figure: "abl-learn", Config: cfg.name, System: "learned table", Ms: math.NaN(), Note: fmt.Sprintf("picks %s (loss %.3f)", l, loss)},
		)
	}
	return rows, nil
}
