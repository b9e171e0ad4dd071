package experiments

import (
	"fmt"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/tasks"
)

// The Figure 9 experiments: platform independence (a-c) forces every single
// platform in turn and checks RHEEM's free choice; opportunistic
// cross-platform (d-f) lets RHEEM mix platforms and sweeps the knob the
// paper sweeps (batch size, iterations).

// fig9Platforms are the single platforms the tasks are forced onto.
var fig9Platforms = []string{"streams", "spark", "flink"}

// wordCountData writes a corpus fraction and returns its DFS path.
func wordCountData(ctx *rheem.Context, lines []string, frac float64) (string, error) {
	n := int(float64(len(lines)) * frac)
	if n < 1 {
		n = 1
	}
	name := fmt.Sprintf("wc-%d.txt", n)
	if err := ctx.DFS.WriteLines(name, lines[:n]); err != nil {
		return "", err
	}
	return "dfs://" + name, nil
}

// Fig9a: WordCount over dataset sizes, one platform at a time plus RHEEM's
// choice.
func Fig9a(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	base := datagen.Words(opts.n(60000), 9, 30000, opts.Seed)
	var rows []Row
	for _, pct := range []int{1, 10, 50, 100} {
		cfg := fmt.Sprintf("size=%d%%", pct)
		for _, system := range append(fig9Platforms, "Rheem") {
			if err := withCtx(func(ctx *rheem.Context) error {
				path, err := wordCountData(ctx, base, float64(pct)/100)
				if err != nil {
					return err
				}
				b, sink := tasks.WordCount(ctx, path)
				note := ""
				if system != "Rheem" {
					tasks.PinAll(b.Plan(), system)
				}
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					_, err = res.CollectFrom(sink)
					return err
				})
				if err != nil {
					return fmt.Errorf("fig9a %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9a", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Fig9b: SGD over dataset sizes.
func Fig9b(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	const dim = 10
	base := datagen.PointLines(datagen.Points(opts.n(20000), dim, opts.Seed))
	var rows []Row
	for _, pct := range []int{1, 10, 50, 100} {
		cfg := fmt.Sprintf("size=%d%%", pct)
		n := len(base) * pct / 100
		if n < 10 {
			n = 10
		}
		for _, system := range append(fig9Platforms, "Rheem") {
			if err := withCtx(func(ctx *rheem.Context) error {
				if err := ctx.DFS.WriteLines("sgd.csv", base[:n]); err != nil {
					return err
				}
				b, final, err := tasks.SGD(ctx, "dfs://sgd.csv", tasks.SGDOptions{
					Iterations: 20, BatchSize: 50, Dim: dim, Seed: opts.Seed,
				})
				if err != nil {
					return err
				}
				sink := final.CollectSink()
				note := ""
				if system != "Rheem" {
					tasks.PinAll(b.Plan(), system)
				}
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					_, err = res.CollectFrom(sink)
					return err
				})
				if err != nil {
					return fmt.Errorf("fig9b %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9b", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// crocoVariant pins the CrocoPR preparation phase and the PageRank operator
// per single-"platform" variant: spark and flink run everything; the graph
// systems (pregel, graphmem) run PageRank with the preparation on the
// cheapest single-node engine, mirroring how the paper runs Giraph/JGraph.
func crocoVariant(p *core.Plan, system string) {
	switch system {
	case "spark", "flink":
		tasks.PinAll(p, system)
	case "pregel", "graphmem":
		tasks.PinAllBut(p, "streams", core.KindPageRank)
		for _, op := range p.Operators() {
			if op.Kind == core.KindPageRank {
				op.TargetPlatform = system
			}
		}
	}
}

// Fig9c: CrocoPR over dataset sizes.
func Fig9c(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	fullA, fullB := datagen.CommunityGraphs(opts.n(3000), opts.n(1500), 3, opts.Seed)
	systems := []string{"spark", "flink", "pregel", "graphmem", "Rheem"}
	var rows []Row
	for _, pct := range []int{1, 10, 50, 100} {
		cfg := fmt.Sprintf("size=%d%%", pct)
		na := len(fullA) * pct / 100
		nb := len(fullB) * pct / 100
		if na < 10 || nb < 10 {
			na, nb = 10, 10
		}
		for _, system := range systems {
			if err := withCtx(func(ctx *rheem.Context) error {
				ctx.DFS.WriteLines("ca.tsv", datagen.EdgeLines(fullA[:na]))
				ctx.DFS.WriteLines("cb.tsv", datagen.EdgeLines(fullB[:nb]))
				b, ranks := tasks.CrocoPR(ctx, "dfs://ca.tsv", "dfs://cb.tsv", 10)
				sink := ranks.CollectSink()
				note := ""
				if system != "Rheem" {
					crocoVariant(b.Plan(), system)
				}
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					_, err = res.CollectFrom(sink)
					return err
				})
				if err != nil {
					return fmt.Errorf("fig9c %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9c", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Fig9d: opportunistic WordCount — full dataset, sweeping the fraction of
// the counted words flowing onward (the paper's sample-size axis); RHEEM
// may hand the shrunken tail to a cheaper platform.
func Fig9d(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	base := datagen.Words(opts.n(40000), 9, 30000, opts.Seed)
	var rows []Row
	for _, pct := range []int{1, 10, 50, 100} {
		cfg := fmt.Sprintf("sample=%d%%", pct)
		for _, system := range append(fig9Platforms, "Rheem") {
			if err := withCtx(func(ctx *rheem.Context) error {
				path, err := wordCountData(ctx, base, 1)
				if err != nil {
					return err
				}
				b, _ := wordCountSampled(ctx, path, float64(pct)/100)
				if system != "Rheem" {
					tasks.PinAll(b.Plan(), system)
				}
				note := ""
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					return nil
				})
				if err != nil {
					return fmt.Errorf("fig9d %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9d", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

func wordCountSampled(ctx *rheem.Context, path string, frac float64) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("wordcount-sampled")
	sink := b.ReadTextFile(path).
		FlatMap("split", splitWords).
		ReduceBy("count", wordKey, sumKV).
		Sample("bernoulli", 0, frac, 7).
		CollectSink()
	return b, sink
}

func splitWords(q any) []any {
	var out []any
	word := ""
	for _, r := range q.(string) + " " {
		if r == ' ' {
			if word != "" {
				out = append(out, core.KV{Key: word, Value: int64(1)})
			}
			word = ""
		} else {
			word += string(r)
		}
	}
	return out
}

func wordKey(q any) any { return q.(core.KV).Key }

func sumKV(a, b any) any {
	ka, kb := a.(core.KV), b.(core.KV)
	return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
}

// Fig9e: opportunistic SGD — batch size sweep over the full dataset.
func Fig9e(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	const dim = 10
	lines := datagen.PointLines(datagen.Points(opts.n(20000), dim, opts.Seed))
	var rows []Row
	for _, batch := range []int{1, 10, 100, 1000} {
		cfg := fmt.Sprintf("batch=%d", batch)
		for _, system := range append(fig9Platforms, "Rheem") {
			if err := withCtx(func(ctx *rheem.Context) error {
				if err := ctx.DFS.WriteLines("sgd.csv", lines); err != nil {
					return err
				}
				b, final, err := tasks.SGD(ctx, "dfs://sgd.csv", tasks.SGDOptions{
					Iterations: 20, BatchSize: batch, Dim: dim, Seed: opts.Seed,
				})
				if err != nil {
					return err
				}
				sink := final.CollectSink()
				note := ""
				if system != "Rheem" {
					tasks.PinAll(b.Plan(), system)
				}
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					_, err = res.CollectFrom(sink)
					return err
				})
				if err != nil {
					return fmt.Errorf("fig9e %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9e", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// Fig9f: opportunistic CrocoPR — iteration count sweep at 10% dataset.
func Fig9f(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	fullA, fullB := datagen.CommunityGraphs(opts.n(3000), opts.n(1500), 3, opts.Seed)
	na, nb := len(fullA)/10, len(fullB)/10
	systems := []string{"spark", "flink", "pregel", "graphmem", "Rheem"}
	var rows []Row
	for _, iters := range []int{1, 10, 100} {
		cfg := fmt.Sprintf("iters=%d", iters)
		for _, system := range systems {
			if err := withCtx(func(ctx *rheem.Context) error {
				ctx.DFS.WriteLines("ca.tsv", datagen.EdgeLines(fullA[:na]))
				ctx.DFS.WriteLines("cb.tsv", datagen.EdgeLines(fullB[:nb]))
				b, ranks := tasks.CrocoPR(ctx, "dfs://ca.tsv", "dfs://cb.tsv", iters)
				sink := ranks.CollectSink()
				note := ""
				if system != "Rheem" {
					crocoVariant(b.Plan(), system)
				}
				ms, err := timed(func() error {
					res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
					if err != nil {
						return err
					}
					if system == "Rheem" {
						note = fmt.Sprint(res.Platforms())
					}
					_, err = res.CollectFrom(sink)
					return err
				})
				if err != nil {
					return fmt.Errorf("fig9f %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig9f", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
