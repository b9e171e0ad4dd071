package experiments

import (
	"fmt"

	"rheem"
	"rheem/internal/baselines"
	"rheem/internal/datagen"
	"rheem/internal/tasks"
)

// Fig11: RHEEM vs Musketeer on CrocoPR — dataset-size sweep at 10
// iterations and iteration sweep at 10% of the dataset. Musketeer pays
// per-stage code generation and DFS materialization every iteration, so
// RHEEM's advantage grows with the iteration count while RHEEM stays nearly
// flat (the loop body runs on cheap in-memory platforms).
func Fig11(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	fullA, fullB := datagen.CommunityGraphs(opts.n(3000), opts.n(1500), 3, opts.Seed)

	var rows []Row
	run := func(cfg string, na, nb, iters int) error {
		// RHEEM, optimizer free.
		ctx, err := newCtx()
		if err != nil {
			return err
		}
		defer ctx.Close()
		ctx.DFS.WriteLines("ca.tsv", datagen.EdgeLines(fullA[:na]))
		ctx.DFS.WriteLines("cb.tsv", datagen.EdgeLines(fullB[:nb]))
		b, ranks := tasks.CrocoPR(ctx, "dfs://ca.tsv", "dfs://cb.tsv", iters)
		sink := ranks.CollectSink()
		var out []Row
		ms, err := timed(func() error {
			res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
			if err != nil {
				return err
			}
			_, err = res.CollectFrom(sink)
			return err
		})
		if err != nil {
			return fmt.Errorf("fig11 rheem %s: %w", cfg, err)
		}
		out = append(out, Row{Figure: "fig11", Config: cfg, System: "Rheem", Ms: ms})

		// Musketeer: rule-mapped, per-stage codegen + DFS round trips. The
		// PageRank runs as one staged operator, but every preparation
		// operator and every loop round pays the stage tax.
		ctx2, err := newCtx()
		if err != nil {
			return err
		}
		defer ctx2.Close()
		ctx2.DFS.WriteLines("ca.tsv", datagen.EdgeLines(fullA[:na]))
		ctx2.DFS.WriteLines("cb.tsv", datagen.EdgeLines(fullB[:nb]))
		b2, ranks2 := tasks.CrocoPR(ctx2, "dfs://ca.tsv", "dfs://cb.tsv", 1)
		ranks2.CollectSink()
		cfgM := baselines.DefaultMusketeer()
		ms, err = timed(func() error {
			// Musketeer re-runs its staged PageRank per iteration (its
			// fixed-point loops are staged jobs, Figure 11's analysis).
			for it := 0; it < iters; it++ {
				if _, err := baselines.MusketeerRun(ctx2, b2.Plan(), cfgM); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("fig11 musketeer %s: %w", cfg, err)
		}
		out = append(out, Row{Figure: "fig11", Config: cfg, System: "Musketeer", Ms: ms})
		rows = append(rows, out...)
		return nil
	}

	for _, pct := range []int{1, 50, 100} {
		na, nb := len(fullA)*pct/100, len(fullB)*pct/100
		if err := run(fmt.Sprintf("size=%d%% iters=10", pct), na, nb, 10); err != nil {
			return nil, err
		}
	}
	for _, iters := range []int{1, 10, 50} {
		na, nb := len(fullA)/10, len(fullB)/10
		if err := run(fmt.Sprintf("size=10%% iters=%d", iters), na, nb, iters); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
