package experiments

import (
	"fmt"
	"os"

	"rheem"
	"rheem/apps/bigdansing"
	"rheem/apps/datacivilizer"
	"rheem/apps/xdb"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/tasks"
)

// Fig2a reproduces Figure 2(a), platform independence: the BigDansing
// error-detection task (the salary/tax denial constraint) across dataset
// sizes, comparing DC@Rheem against NADEEF (single-node nested loop) and
// SparkSQL (cartesian + filter). The paper's 100k–2M rows scale down 100x.
func Fig2a(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	rule := bigdansing.DenialConstraint{
		IDCol: datagen.TaxColID,
		ColA:  datagen.TaxColSalary, OpA: core.Greater,
		ColB: datagen.TaxColTax, OpB: core.Less,
		BlockCol: -1,
	}
	var rows []Row
	for _, n := range []int{opts.n(1000), opts.n(2000), opts.n(10000), opts.n(20000)} {
		cfg := fmt.Sprintf("rows=%d", n)
		records := datagen.TaxRecords(n, 0.02, opts.Seed)
		quanta := datagen.AnySlice(records)

		ctx, err := newCtx()
		if err != nil {
			return nil, err
		}
		var chosen string
		ms, err := timed(func() error {
			violations, err := bigdansing.Detect(ctx, quanta, rule)
			_ = violations
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig2a DC@Rheem %s: %w", cfg, err)
		}
		rows = append(rows, Row{Figure: "fig2a", Config: cfg, System: "DC@Rheem", Ms: ms, Note: chosen})

		ms, err = timed(func() error {
			bigdansing.GenFixes(rule, nil) // parity with the Rheem pipeline shape
			_ = baselinesNadeef(records, rule)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{Figure: "fig2a", Config: cfg, System: "NADEEF", Ms: ms})

		// SparkSQL's cartesian plan is quadratic; beyond ~2k rows it is the
		// paper's red cross (they stopped runs after 40 hours).
		if n <= opts.n(2000) {
			ctx2, err := newCtx()
			if err != nil {
				return nil, err
			}
			ms, err = timed(func() error {
				_, err := baselinesSparkSQL(ctx2, quanta, rule)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fig2a SparkSQL %s: %w", cfg, err)
			}
			rows = append(rows, Row{Figure: "fig2a", Config: cfg, System: "SparkSQL", Ms: ms})
		} else {
			rows = append(rows, Row{Figure: "fig2a", Config: cfg, System: "SparkSQL", Ms: -1, Note: "quadratic; skipped"})
		}
	}
	return rows, nil
}

// Fig2b reproduces Figure 2(b), opportunistic cross-platform: SGD over
// three datasets, ML@Rheem (free platform mixing) vs MLlib (all-spark) vs
// SystemML (all-spark with heavier per-job compilation).
func Fig2b(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	type ds struct {
		name string
		n    int
		dim  int
	}
	datasets := []ds{
		{"rcv1-like", opts.n(3000), 50},
		{"higgs-like", opts.n(10000), 10},
		{"synthetic", opts.n(30000), 5},
	}
	const iterations, batch = 25, 100
	var rows []Row
	for _, d := range datasets {
		points := datagen.Points(d.n, d.dim, opts.Seed)
		lines := datagen.PointLines(points)

		run := func(system string, pin string, heavy bool) error {
			cfg := rheem.Config{}
			if heavy {
				cfg.SparkConfig.Latency = spark.Paper
				cfg.SparkConfig.Latency.StageMs *= 3 // SystemML recompiles per job
			}
			ctx, err := rheem.NewContext(cfg)
			if err != nil {
				return err
			}
			if err := ctx.DFS.WriteLines("points.csv", lines); err != nil {
				return err
			}
			b, final, err := tasks.SGD(ctx, "dfs://points.csv", tasks.SGDOptions{
				Iterations: iterations, BatchSize: batch, Dim: d.dim, Seed: opts.Seed,
			})
			if err != nil {
				return err
			}
			sink := final.CollectSink()
			if pin != "" {
				tasks.PinAll(b.Plan(), pin)
			}
			ms, err := timed(func() error {
				res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
				if err != nil {
					return err
				}
				_, err = res.CollectFrom(sink)
				return err
			})
			if err != nil {
				return err
			}
			rows = append(rows, Row{Figure: "fig2b", Config: d.name, System: system, Ms: ms})
			return nil
		}
		if err := run("ML@Rheem", "", false); err != nil {
			return nil, fmt.Errorf("fig2b ML@Rheem %s: %w", d.name, err)
		}
		if err := run("MLlib", "spark", false); err != nil {
			return nil, fmt.Errorf("fig2b MLlib %s: %w", d.name, err)
		}
		if err := run("SystemML", "spark", true); err != nil {
			return nil, fmt.Errorf("fig2b SystemML %s: %w", d.name, err)
		}
	}
	return rows, nil
}

// Fig2c reproduces Figure 2(c), mandatory cross-platform: the
// cross-community PageRank with input stored in the relational store
// (xDB@Rheem must move it out) vs the ideal case where the input already
// sits on the DFS.
func Fig2c(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	sizes := []struct {
		name string
		core int
	}{
		{"small", opts.n(800)},
		{"medium", opts.n(2000)},
		{"large", opts.n(4000)},
	}
	const iters = 10
	var rows []Row
	for _, s := range sizes {
		a, b := datagen.CommunityGraphs(s.core, s.core/2, 3, opts.Seed)

		// xDB@Rheem: edges live in the store as (src, dst) tables.
		ctx, err := newCtx()
		if err != nil {
			return nil, err
		}
		store := ctx.RelStore("pg")
		loadEdges := func(table string, edges []core.Edge) error {
			t, err := store.CreateTable(table, []relstore.Column{
				{Name: "src", Type: relstore.TInt}, {Name: "dst", Type: relstore.TInt},
			})
			if err != nil {
				return err
			}
			recs := make([]core.Record, len(edges))
			for i, e := range edges {
				recs[i] = core.Record{e.Src, e.Dst}
			}
			return t.Insert(recs...)
		}
		if err := loadEdges("comm_a", a); err != nil {
			return nil, err
		}
		if err := loadEdges("comm_b", b); err != nil {
			return nil, err
		}
		ms, err := timed(func() error {
			pb := ctx.NewPlan("xdb-crocopr")
			toEdge := func(q any) any {
				r := q.(core.Record)
				return core.Edge{Src: r.Int(0), Dst: r.Int(1)}
			}
			ea := pb.ReadTable("pg", "comm_a", nil, nil).Map("to-edge-a", toEdge).Distinct()
			eb := pb.ReadTable("pg", "comm_b", nil, nil).Map("to-edge-b", toEdge).Distinct()
			ranks := ea.Intersect(eb).PageRank(iters, 0.85)
			_, err := ranks.Collect(rheem.WithProgressive(false))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig2c xDB@Rheem %s: %w", s.name, err)
		}
		rows = append(rows, Row{Figure: "fig2c", Config: s.name, System: "xDB@Rheem", Ms: ms})

		// Ideal: edge files already on the DFS.
		ctx2, err := newCtx()
		if err != nil {
			return nil, err
		}
		ctx2.DFS.WriteLines("ca.tsv", datagen.EdgeLines(a))
		ctx2.DFS.WriteLines("cb.tsv", datagen.EdgeLines(b))
		ms, err = timed(func() error {
			pb := ctx2.NewPlan("ideal-crocopr")
			ranks := xdb.BuildCrossCommunityPageRank(ctx2,
				pb.ReadTextFile("dfs://ca.tsv"), pb.ReadTextFile("dfs://cb.tsv"), iters)
			_, err := ranks.Collect(rheem.WithProgressive(false))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fig2c ideal %s: %w", s.name, err)
		}
		rows = append(rows, Row{Figure: "fig2c", Config: s.name, System: "Ideal case", Ms: ms})
	}
	return rows, nil
}

// Fig2d reproduces Figure 2(d), polystore: TPC-H Q5 over data split across
// the DFS, the relational store, and the local file system. DataCiv@Rheem
// runs in place; the baselines first consolidate everything into one system
// (load-into-Postgres, or move-all-to-HDFS-and-Spark), paying the
// migration the paper shows dominating.
func Fig2d(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	var rows []Row
	for _, sf := range []float64{0.1 * opts.Scale, 0.3 * opts.Scale, 1 * opts.Scale} {
		cfg := fmt.Sprintf("sf=%.2f", sf)
		db := datagen.GenTPCH(sf, opts.Seed)

		// DataCiv@Rheem: query the polystore in place.
		ctx, err := newCtx()
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp("", "rheem-exp-*")
		if err != nil {
			return nil, err
		}
		lay, err := datacivilizer.LoadPolystore(ctx, db, dir)
		var ms float64
		if err == nil {
			ms, err = timed(func() error {
				_, err := datacivilizer.RunQ5(ctx, lay, "ASIA", 100, rheem.WithProgressive(false))
				return err
			})
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("fig2d rheem %s: %w", cfg, err)
		}
		rows = append(rows, Row{Figure: "fig2d", Config: cfg, System: "DataCiv@Rheem", Ms: ms})

		// Baseline 1: load everything into the store, query there.
		ctx2, err := newCtx()
		if err != nil {
			return nil, err
		}
		ms, err = timed(func() error { return q5AllPostgres(ctx2, db) })
		if err != nil {
			return nil, fmt.Errorf("fig2d postgres %s: %w", cfg, err)
		}
		rows = append(rows, Row{Figure: "fig2d", Config: cfg, System: "Postgres(load)", Ms: ms})

		// Baseline 2: move everything to the DFS, run all-spark.
		ctx3, err := newCtx()
		if err != nil {
			return nil, err
		}
		ms, err = timed(func() error { return q5AllSpark(ctx3, db) })
		if err != nil {
			return nil, fmt.Errorf("fig2d spark %s: %w", cfg, err)
		}
		rows = append(rows, Row{Figure: "fig2d", Config: cfg, System: "Spark(move)", Ms: ms})
	}
	return rows, nil
}

func baselinesNadeef(records []core.Record, rule bigdansing.DenialConstraint) int {
	n := 0
	for i, a := range records {
		for j, b := range records {
			if i != j && rule.Detect(a, b) {
				n++
			}
		}
	}
	return n
}

func baselinesSparkSQL(ctx *rheem.Context, quanta []any, rule bigdansing.DenialConstraint) (int, error) {
	b := ctx.NewPlan("sparksql")
	left := b.LoadCollection("l", quanta)
	right := b.LoadCollection("r", quanta)
	count := left.Cartesian(right, func(l, r any) any { return core.Record{l, r} }).
		Filter("theta", func(q any) bool {
			pair := q.(core.Record)
			x, y := pair[0].(core.Record), pair[1].(core.Record)
			return x.Int(rule.IDCol) != y.Int(rule.IDCol) && rule.Detect(x, y)
		}).Count()
	sink := count.CollectSink()
	tasks.PinAll(b.Plan(), "spark")
	res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
	if err != nil {
		return 0, err
	}
	out, err := res.CollectFrom(sink)
	if err != nil || len(out) != 1 {
		return 0, err
	}
	return int(out[0].(int64)), nil
}
