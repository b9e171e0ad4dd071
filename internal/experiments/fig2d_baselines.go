package experiments

import (
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/platform/relstore"
	"rheem/internal/simclock"
	"rheem/internal/tasks"
)

// q5AllPostgres is the "load everything into the DBMS first" practice: bulk
// load the DFS- and file-resident tables into the store (the dominant cost
// the paper observed), then run the whole query pinned there.
func q5AllPostgres(ctx *rheem.Context, db *datagen.TPCH) error {
	store := ctx.RelStore("pg")
	mk := func(name string, cols []relstore.Column, rows []core.Record) error {
		t, err := store.CreateTable(name, cols)
		if err != nil {
			return err
		}
		// Insert charges nothing; the per-row load cost of the two migrated
		// tables is charged explicitly below.
		return t.Insert(rows...)
	}
	intc := func(n string) relstore.Column { return relstore.Column{Name: n, Type: relstore.TInt} }
	fc := func(n string) relstore.Column { return relstore.Column{Name: n, Type: relstore.TFloat} }
	sc := func(n string) relstore.Column { return relstore.Column{Name: n, Type: relstore.TString} }
	if err := mk("customer", []relstore.Column{intc("custkey"), sc("name"), intc("nationkey"), fc("acctbal"), sc("seg")}, db.Customer); err != nil {
		return err
	}
	if err := mk("region", []relstore.Column{intc("regionkey"), sc("name")}, db.Region); err != nil {
		return err
	}
	if err := mk("supplier", []relstore.Column{intc("suppkey"), sc("name"), intc("nationkey"), fc("acctbal")}, db.Supplier); err != nil {
		return err
	}
	if err := mk("nation", []relstore.Column{intc("nationkey"), sc("name"), intc("regionkey")}, db.Nation); err != nil {
		return err
	}
	// The "migration": orders and lineitem arrive from outside the store.
	if err := mk("orders", []relstore.Column{intc("orderkey"), intc("custkey"), intc("orderdate"), fc("total")}, db.Orders); err != nil {
		return err
	}
	if err := mk("lineitem", []relstore.Column{intc("orderkey"), intc("suppkey"), fc("extprice"), fc("discount"), fc("qty")}, db.Lineitem); err != nil {
		return err
	}
	// Charge the two migrated tables the bulk-load cost the relstore.load
	// conversion is priced at: inserting through the conversion path would
	// double-copy, and the conversion only prices the cost, it charges none.
	migrated := len(db.Orders) + len(db.Lineitem)
	simclock.Charge(time.Duration(float64(migrated) * relstore.LoadMsPerRow * float64(time.Millisecond)))

	b, sink := q5PinnedPlan(ctx, "relstore")
	res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
	if err != nil {
		return err
	}
	_, err = res.CollectFrom(sink)
	return err
}

// q5AllSpark is the "move everything to HDFS and use Spark" practice.
func q5AllSpark(ctx *rheem.Context, db *datagen.TPCH) error {
	// Migration: write every table to the DFS.
	for name, rows := range map[string][]core.Record{
		"customer": db.Customer, "region": db.Region, "supplier": db.Supplier,
		"nation": db.Nation, "orders": db.Orders, "lineitem": db.Lineitem,
	} {
		if err := ctx.DFS.WriteLines("all/"+name+".tbl", datagen.RecordLines(rows)); err != nil {
			return err
		}
	}
	b, sink := q5SparkPlan(ctx)
	res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
	if err != nil {
		return err
	}
	_, err = res.CollectFrom(sink)
	return err
}

// q5PinnedPlan builds Q5 over in-store tables, pinned to one platform.
func q5PinnedPlan(ctx *rheem.Context, platform string) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("q5-" + platform)
	regions := b.ReadTable("pg", "region", nil, &core.Predicate{Col: datagen.RegionName, Op: core.PredEq, Value: "ASIA"})
	nations := b.ReadTable("pg", "nation", nil, nil)
	suppliers := b.ReadTable("pg", "supplier", nil, nil)
	customers := b.ReadTable("pg", "customer", nil, nil)
	orders := b.ReadTable("pg", "orders", nil, nil).
		FilterWhere("date-lo", core.Predicate{Col: datagen.OrderDate, Op: core.PredGe, Value: int64(100)}).
		FilterWhere("date-hi", core.Predicate{Col: datagen.OrderDate, Op: core.PredLt, Value: int64(465)})
	lineitems := b.ReadTable("pg", "lineitem", nil, nil)
	sink := assembleQ5(b, regions, nations, suppliers, customers, orders, lineitems)
	tasks.PinAll(b.Plan(), platform)
	return b, sink
}

// q5SparkPlan builds Q5 over DFS files, pinned to spark.
func q5SparkPlan(ctx *rheem.Context) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("q5-spark")
	read := func(name string) *rheem.DataQuanta {
		return b.ReadTextFile("dfs://all/"+name+".tbl").Map("parse-"+name, func(q any) any {
			return datagen.ParseRecordLine(q.(string))
		})
	}
	regions := read("region").Filter("asia", func(q any) bool {
		return q.(core.Record).String(datagen.RegionName) == "ASIA"
	})
	nations := read("nation")
	suppliers := read("supplier")
	customers := read("customer")
	orders := read("orders").Filter("dates", func(q any) bool {
		d := q.(core.Record).Int(datagen.OrderDate)
		return d >= 100 && d < 465
	}).WithSelectivity(365.0 / 2556)
	lineitems := read("lineitem")
	sink := assembleQ5(b, regions, nations, suppliers, customers, orders, lineitems)
	tasks.PinAll(b.Plan(), "spark")
	return b, sink
}

// assembleQ5 shares the join/aggregate tail across Q5 variants.
func assembleQ5(b *rheem.PlanBuilder, regions, nations, suppliers, customers, orders, lineitems *rheem.DataQuanta) *core.Operator {
	nationsInRegion := nations.Join(regions,
		func(q any) any { return q.(core.Record).Int(datagen.NationRegionKey) },
		func(q any) any { return q.(core.Record).Int(datagen.RegionKey) },
		func(l, r any) any {
			n := l.(core.Record)
			return core.Record{n.Int(datagen.NationKey), n.String(datagen.NationName)}
		}).WithSelectivity(0.2)
	suppInRegion := suppliers.Join(nationsInRegion,
		func(q any) any { return q.(core.Record).Int(datagen.SuppNationKey) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			s, n := l.(core.Record), r.(core.Record)
			return core.Record{s.Int(datagen.SuppKey), s.Int(datagen.SuppNationKey), n.String(1)}
		}).WithSelectivity(0.2)
	custOrders := orders.Join(customers,
		func(q any) any { return q.(core.Record).Int(datagen.OrderCustKey) },
		func(q any) any { return q.(core.Record).Int(datagen.CustKey) },
		func(l, r any) any {
			o, c := l.(core.Record), r.(core.Record)
			return core.Record{o.Int(datagen.OrderKey), c.Int(datagen.CustNationKey)}
		}).WithSelectivity(1.0 / 1500)
	liOrders := lineitems.Join(custOrders,
		func(q any) any { return q.(core.Record).Int(datagen.LIOrderKey) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			li, co := l.(core.Record), r.(core.Record)
			rev := li.Float(datagen.LIExtPrice) * (1 - li.Float(datagen.LIDiscount))
			return core.Record{li.Int(datagen.LISuppKey), co.Int(1), rev}
		}).WithSelectivity(1.0 / 15000)
	joined := liOrders.Join(suppInRegion,
		func(q any) any {
			r := q.(core.Record)
			return r.Int(0)<<32 | r.Int(1)
		},
		func(q any) any {
			r := q.(core.Record)
			return r.Int(0)<<32 | r.Int(1)
		},
		func(l, r any) any {
			return core.Record{r.(core.Record).String(2), l.(core.Record).Float(2)}
		}).WithSelectivity(0.01)
	return joined.ReduceBy("revenue",
		func(q any) any { return q.(core.Record)[0] },
		func(a, c any) any {
			ra, rc := a.(core.Record), c.(core.Record)
			return core.Record{ra[0], ra.Float(1) + rc.Float(1)}
		}).
		Sort(func(a, c any) bool { return a.(core.Record).Float(1) > c.(core.Record).Float(1) }).
		CollectSink()
}
