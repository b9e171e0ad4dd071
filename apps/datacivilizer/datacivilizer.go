// Package datacivilizer reproduces the Data Civilizer polystore application
// of the paper (Section 2.4): analytic tasks over data scattered across
// heterogeneous stores. The flagship task is TPC-H query 5 with the tables
// split exactly as in the experiment — LINEITEM and ORDERS on the DFS,
// CUSTOMER, REGION and SUPPLIER in the relational store, NATION on the
// local file system — so the plan must read three storage systems and let
// the optimizer decide where each join runs.
package datacivilizer

import (
	"fmt"
	"sort"
	"strings"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/platform/relstore"
)

// Layout records where each TPC-H table lives.
type Layout struct {
	Store      string // relstore instance holding customer/region/supplier
	LineitemAt string // dfs:// path
	OrdersAt   string // dfs:// path
	NationAt   string // local file path
}

// LoadPolystore distributes a generated TPC-H database across the three
// storage systems per the paper's split and returns the layout.
func LoadPolystore(ctx *rheem.Context, db *datagen.TPCH, localDir string) (*Layout, error) {
	lay := &Layout{
		Store:      "pg",
		LineitemAt: "dfs://tpch/lineitem.tbl",
		OrdersAt:   "dfs://tpch/orders.tbl",
		NationAt:   localDir + "/nation.tbl",
	}
	store := ctx.RelStore(lay.Store)
	mk := func(name string, cols []relstore.Column, rows []core.Record) error {
		t, err := store.CreateTable(name, cols)
		if err != nil {
			return err
		}
		return t.Insert(rows...)
	}
	if err := mk("customer", []relstore.Column{
		{Name: "custkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
		{Name: "nationkey", Type: relstore.TInt}, {Name: "acctbal", Type: relstore.TFloat},
		{Name: "mktsegment", Type: relstore.TString},
	}, db.Customer); err != nil {
		return nil, err
	}
	if err := mk("region", []relstore.Column{
		{Name: "regionkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
	}, db.Region); err != nil {
		return nil, err
	}
	if err := mk("supplier", []relstore.Column{
		{Name: "suppkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
		{Name: "nationkey", Type: relstore.TInt}, {Name: "acctbal", Type: relstore.TFloat},
	}, db.Supplier); err != nil {
		return nil, err
	}
	if err := ctx.DFS.WriteLines(strings.TrimPrefix(lay.LineitemAt, "dfs://"), datagen.RecordLines(db.Lineitem)); err != nil {
		return nil, err
	}
	if err := ctx.DFS.WriteLines(strings.TrimPrefix(lay.OrdersAt, "dfs://"), datagen.RecordLines(db.Orders)); err != nil {
		return nil, err
	}
	if err := core.WriteTextFile(lay.NationAt, asAny(datagen.RecordLines(db.Nation)), nil); err != nil {
		return nil, err
	}
	return lay, nil
}

func asAny(lines []string) []any {
	out := make([]any, len(lines))
	for i, l := range lines {
		out[i] = l
	}
	return out
}

// Q5Row is one result row of TPC-H Q5: a nation and its revenue.
type Q5Row struct {
	Nation  string
	Revenue float64
}

// BuildQ5 composes TPC-H query 5 over the polystore layout:
//
//	SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
//	FROM customer, orders, lineitem, supplier, nation, region
//	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
//	  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
//	  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
//	  AND r_name = :region AND o_orderdate in [:date, :date+365)
//	GROUP BY n_name ORDER BY revenue DESC
func BuildQ5(ctx *rheem.Context, lay *Layout, region string, dateLo int64) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("tpch-q5")

	// Relational-store residents. Region filtering pushes into the store.
	regions := b.ReadTable(lay.Store, "region", nil, &core.Predicate{Col: datagen.RegionName, Op: core.PredEq, Value: region})
	customers := b.ReadTable(lay.Store, "customer", []int{datagen.CustKey, datagen.CustNationKey}, nil)
	suppliers := b.ReadTable(lay.Store, "supplier", []int{datagen.SuppKey, datagen.SuppNationKey}, nil)

	// Local-file resident: NATION.
	nations := b.ReadTextFile(lay.NationAt).Map("parse-nation", parseTSV)

	// DFS residents: ORDERS and LINEITEM.
	orders := b.ReadTextFile(lay.OrdersAt).Map("parse-orders", parseTSV).
		Filter("order-date", func(q any) bool {
			d := q.(core.Record).Int(datagen.OrderDate)
			return d >= dateLo && d < dateLo+365
		}).WithSelectivity(365.0 / 2556)
	lineitems := b.ReadTextFile(lay.LineitemAt).Map("parse-lineitem", parseTSV)

	// nation ⋈ region (regionkey) -> (nationkey, nationname)
	nationsInRegion := nations.Join(regions,
		func(q any) any { return q.(core.Record).Int(datagen.NationRegionKey) },
		func(q any) any { return q.(core.Record).Int(datagen.RegionKey) },
		func(l, r any) any {
			n := l.(core.Record)
			return core.Record{n.Int(datagen.NationKey), n.String(datagen.NationName)}
		}).WithSelectivity(1.0 / float64(len(datagen.RegionNames)))

	// supplier ⋈ nationsInRegion (nationkey) -> (suppkey, nationkey, nationname)
	suppInRegion := suppliers.Join(nationsInRegion,
		func(q any) any { return q.(core.Record).Int(1) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			s, n := l.(core.Record), r.(core.Record)
			return core.Record{s.Int(0), s.Int(1), n.String(1)}
		}).WithSelectivity(0.2)

	// customer ⋈ orders (custkey) -> (orderkey, c_nationkey)
	custOrders := orders.Join(customers,
		func(q any) any { return q.(core.Record).Int(datagen.OrderCustKey) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			o, c := l.(core.Record), r.(core.Record)
			return core.Record{o.Int(datagen.OrderKey), c.Int(1)}
		}).WithSelectivity(1.0 / 1500)

	// lineitem ⋈ custOrders (orderkey) -> (suppkey, c_nationkey, revenue)
	liOrders := lineitems.Join(custOrders,
		func(q any) any { return q.(core.Record).Int(datagen.LIOrderKey) },
		func(q any) any { return q.(core.Record).Int(0) },
		func(l, r any) any {
			li, co := l.(core.Record), r.(core.Record)
			rev := li.Float(datagen.LIExtPrice) * (1 - li.Float(datagen.LIDiscount))
			return core.Record{li.Int(datagen.LISuppKey), co.Int(1), rev}
		}).WithSelectivity(1.0 / 15000)

	// ⋈ suppInRegion on (suppkey AND c_nationkey = s_nationkey).
	joined := liOrders.Join(suppInRegion,
		func(q any) any {
			r := q.(core.Record)
			return fmt.Sprintf("%d/%d", r.Int(0), r.Int(1))
		},
		func(q any) any {
			r := q.(core.Record)
			return fmt.Sprintf("%d/%d", r.Int(0), r.Int(1))
		},
		func(l, r any) any {
			rev := l.(core.Record).Float(2)
			name := r.(core.Record).String(2)
			return core.Record{name, rev}
		}).WithSelectivity(0.01)

	result := joined.ReduceBy("revenue",
		func(q any) any { return q.(core.Record)[0] },
		func(a, b any) any {
			ra, rb := a.(core.Record), b.(core.Record)
			return core.Record{ra[0], ra.Float(1) + rb.Float(1)}
		}).
		Sort(func(a, b any) bool { return a.(core.Record).Float(1) > b.(core.Record).Float(1) })

	return b, result.CollectSink()
}

// RunQ5 executes Q5 and decodes the result rows.
func RunQ5(ctx *rheem.Context, lay *Layout, region string, dateLo int64, options ...rheem.ExecOption) ([]Q5Row, error) {
	b, sink := BuildQ5(ctx, lay, region, dateLo)
	res, err := ctx.Execute(b.Plan(), options...)
	if err != nil {
		return nil, err
	}
	data, err := res.CollectFrom(sink)
	if err != nil {
		return nil, err
	}
	rows := make([]Q5Row, len(data))
	for i, q := range data {
		r := q.(core.Record)
		rows[i] = Q5Row{Nation: r.String(0), Revenue: r.Float(1)}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Revenue > rows[j].Revenue })
	return rows, nil
}

// parseTSV parses a tab-separated line into a Record, inferring numeric
// fields.
func parseTSV(q any) any { return datagen.ParseRecordLine(q.(string)) }
