package experiments

import (
	"fmt"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/platform/relstore"
)

// Fig10a: the Join subquery of TPC-H Q5 (SUPPLIER x CUSTOMER on nationkey +
// aggregation), data resident in the store: RHEEM free choice (project in
// the store, join/aggregate in the parallel engine) vs the whole query
// pinned to the store — the "hidden opportunity" result.
func Fig10a(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	var rows []Row
	for _, sf := range []float64{3 * opts.Scale, 10 * opts.Scale} {
		cfg := fmt.Sprintf("sf=%.2f", sf)
		db := datagen.GenTPCH(sf, opts.Seed)
		for _, system := range []string{"Rheem", "Postgres"} {
			if err := withCtx(func(ctx *rheem.Context) error {
				if err := loadSuppCust(ctx, db); err != nil {
					return err
				}
				b, sink := joinTask(ctx)
				note := ""
				if system == "Postgres" {
					pinPlan(b, "relstore")
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
					return fmt.Errorf("fig10a %s %s: %w", cfg, system, err)
				}
				rows = append(rows, Row{Figure: "fig10a", Config: cfg, System: system, Ms: ms, Note: note})
				return nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

func loadSuppCust(ctx *rheem.Context, db *datagen.TPCH) error {
	store := ctx.RelStore("pg")
	s, err := store.CreateTable("supplier", []relstore.Column{
		{Name: "suppkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
		{Name: "nationkey", Type: relstore.TInt}, {Name: "acctbal", Type: relstore.TFloat},
	})
	if err != nil {
		return err
	}
	if err := s.Insert(db.Supplier...); err != nil {
		return err
	}
	c, err := store.CreateTable("customer", []relstore.Column{
		{Name: "custkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
		{Name: "nationkey", Type: relstore.TInt}, {Name: "acctbal", Type: relstore.TFloat},
		{Name: "seg", Type: relstore.TString},
	})
	if err != nil {
		return err
	}
	return c.Insert(db.Customer...)
}

// joinTask: project both tables in place, join on nationkey, aggregate
// account balances per nation.
func joinTask(ctx *rheem.Context) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("join-task")
	supp := b.ReadTable("pg", "supplier", []int{datagen.SuppNationKey, datagen.SuppAcctBal}, nil)
	cust := b.ReadTable("pg", "customer", []int{datagen.CustNationKey, datagen.CustAcctBal}, nil)
	sink := supp.Join(cust,
		func(q any) any { return q.(core.Record).Int(0) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			return core.Record{l.(core.Record).Int(0), l.(core.Record).Float(1) + r.(core.Record).Float(1)}
		}).WithSelectivity(1.0/25).
		ReduceBy("per-nation",
			func(q any) any { return q.(core.Record)[0] },
			func(a, c any) any {
				ra, rc := a.(core.Record), c.(core.Record)
				return core.Record{ra[0], ra.Float(1) + rc.Float(1)}
			}).
		CollectSink()
	return b, sink
}

func pinPlan(b *rheem.PlanBuilder, platform string) {
	for _, op := range b.Plan().Operators() {
		op.TargetPlatform = platform
	}
}

// Fig10b: progressive optimization on/off. The filter carries a misleading
// high-selectivity hint; with PO on, RHEEM detects the mismatch at the
// optimization checkpoint and re-plans the (large) remainder onto the
// parallel engine.
func Fig10b(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	n := opts.n(150000)
	var rows []Row
	for _, po := range []bool{true, false} {
		system := "PO on"
		if !po {
			system = "PO off"
		}
		if err := withCtx(func(ctx *rheem.Context) error {
			b, sink := misleadingFilterTask(ctx, n)
			note := ""
			ms, err := timed(func() error {
				res, err := ctx.Execute(b.Plan(),
					rheem.WithProgressive(po), rheem.WithMismatchFactor(4))
				if err != nil {
					return err
				}
				note = fmt.Sprintf("replans=%d", res.Replans())
				_, err = res.CollectFrom(sink)
				return err
			})
			if err != nil {
				return fmt.Errorf("fig10b %s: %w", system, err)
			}
			rows = append(rows, Row{Figure: "fig10b", Config: fmt.Sprintf("rows=%d", n), System: system, Ms: ms, Note: note})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// misleadingFilterTask: a low-selectivity filter advertised as highly
// selective, followed by a CPU-heavy tail that the optimizer will plan onto
// the single-node engine if it believes the hint. The Distinct between the
// filter and the tail is a fusion barrier: without it, the fusion-aware
// cost model keeps the (believed tiny) tail fused onto the pinned spark
// chain — correctly! — and the hint no longer misleads anyone. Behind a
// non-fusible operator the estimated 7-quanta tail again looks cheapest on
// the single-node engine, which is the mistake this experiment needs the
// progressive reoptimizer to correct.
func misleadingFilterTask(ctx *rheem.Context, n int) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("misled")
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i)
	}
	sink := b.LoadCollection("data", data).
		Map("stage-in", func(q any) any { return q }).WithTargetPlatform("spark").
		Filter("claimed-selective", func(q any) bool { return q.(int64)%10 != 0 }).
		WithSelectivity(0.0001).WithTargetPlatform("spark").
		Distinct().
		Map("heavy-tail", func(q any) any {
			v := q.(int64)
			for i := 0; i < 2000; i++ {
				v = v*1099511628211 + 31
			}
			return v
		}).
		ReduceBy("mod", func(q any) any { return q.(int64) % 64 },
			func(a, c any) any { return a }).
		CollectSink()
	return b, sink
}

// Fig10c: exploratory mode on/off — the WordCount variant with a sniffer
// multiplexing every quantum out of the pipeline; the paper measures ~36%
// overhead.
func Fig10c(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	lines := datagen.Words(opts.n(40000), 9, 30000, opts.Seed)
	var rows []Row
	for _, explore := range []bool{false, true} {
		system := "DE off"
		if explore {
			system = "DE on"
		}
		if err := withCtx(func(ctx *rheem.Context) error {
			if err := ctx.DFS.WriteLines("dewords.txt", lines); err != nil {
				return err
			}
			b := ctx.NewPlan("wc-explore")
			counted := b.ReadTextFile("dfs://dewords.txt").
				FlatMap("split", splitWords).
				Map("len-class", func(q any) any {
					kv := q.(core.KV)
					cls := "short"
					if len(kv.Key.(string)) >= 6 {
						cls = "long"
					}
					return core.KV{Key: cls, Value: int64(1)}
				})
			sink := counted.ReduceBy("count", wordKey, sumKV).CollectSink()

			var execOpts []rheem.ExecOption
			if explore {
				// The paper's exploratory mode multiplexes quanta to a socket
				// sink with preview throttling (results surface within ~2s, not
				// exhaustively); the cost is the serialization of the sampled
				// stream — every 4th quantum here.
				var sniffed, sniffedBytes int64
				execOpts = append(execOpts, rheem.WithSniffer(counted.Op(), func(q any) {
					sniffed++
					if sniffed%4 != 0 {
						return
					}
					raw, err := core.EncodeQuantum(q)
					if err == nil {
						sniffedBytes += int64(len(raw))
					}
				}))
			}
			execOpts = append(execOpts, rheem.WithProgressive(false))
			ms, err := timed(func() error {
				res, err := ctx.Execute(b.Plan(), execOpts...)
				if err != nil {
					return err
				}
				_, err = res.CollectFrom(sink)
				return err
			})
			if err != nil {
				return fmt.Errorf("fig10c %s: %w", system, err)
			}
			rows = append(rows, Row{Figure: "fig10c", Config: "wordcount", System: system, Ms: ms})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
