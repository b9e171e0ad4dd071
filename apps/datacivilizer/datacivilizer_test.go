package datacivilizer

import (
	"math"
	"slices"
	"testing"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
)

func fastCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// referenceQ5 computes Q5 with plain nested Go code: the oracle.
func referenceQ5(db *datagen.TPCH, region string, dateLo int64) map[string]float64 {
	var regionKey int64 = -1
	for _, r := range db.Region {
		if r.String(datagen.RegionName) == region {
			regionKey = r.Int(datagen.RegionKey)
		}
	}
	nationName := map[int64]string{}
	for _, n := range db.Nation {
		if n.Int(datagen.NationRegionKey) == regionKey {
			nationName[n.Int(datagen.NationKey)] = n.String(datagen.NationName)
		}
	}
	suppNation := map[int64]int64{}
	for _, s := range db.Supplier {
		suppNation[s.Int(datagen.SuppKey)] = s.Int(datagen.SuppNationKey)
	}
	custNation := map[int64]int64{}
	for _, c := range db.Customer {
		custNation[c.Int(datagen.CustKey)] = c.Int(datagen.CustNationKey)
	}
	orderCust := map[int64]int64{}
	for _, o := range db.Orders {
		d := o.Int(datagen.OrderDate)
		if d >= dateLo && d < dateLo+365 {
			orderCust[o.Int(datagen.OrderKey)] = o.Int(datagen.OrderCustKey)
		}
	}
	rev := map[string]float64{}
	for _, l := range db.Lineitem {
		ck, ok := orderCust[l.Int(datagen.LIOrderKey)]
		if !ok {
			continue
		}
		cn := custNation[ck]
		sn := suppNation[l.Int(datagen.LISuppKey)]
		if cn != sn {
			continue
		}
		name, inRegion := nationName[sn]
		if !inRegion {
			continue
		}
		rev[name] += l.Float(datagen.LIExtPrice) * (1 - l.Float(datagen.LIDiscount))
	}
	return rev
}

func TestQ5MatchesReference(t *testing.T) {
	ctx := fastCtx(t)
	db := datagen.GenTPCH(0.5, 17)
	lay, err := LoadPolystore(ctx, db, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunQ5(ctx, lay, "ASIA", 100)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceQ5(db, "ASIA", 100)
	if len(rows) != len(want) {
		t.Fatalf("nations = %d, want %d (%v vs %v)", len(rows), len(want), rows, want)
	}
	for _, r := range rows {
		w, ok := want[r.Nation]
		if !ok {
			t.Fatalf("unexpected nation %q", r.Nation)
		}
		if math.Abs(w-r.Revenue) > 1e-6*math.Max(1, w) {
			t.Fatalf("nation %s revenue %.2f, want %.2f", r.Nation, r.Revenue, w)
		}
	}
	// Descending revenue order.
	for i := 1; i < len(rows); i++ {
		if rows[i].Revenue > rows[i-1].Revenue {
			t.Fatal("rows not revenue-descending")
		}
	}
}

func TestQ5UsesMultiplePlatforms(t *testing.T) {
	// The polystore plan must at minimum scan the relational store AND a
	// general-purpose engine for the DFS-resident tables.
	ctx := fastCtx(t)
	db := datagen.GenTPCH(0.5, 23)
	lay, err := LoadPolystore(ctx, db, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildQ5(ctx, lay, "ASIA", 100)
	ep, err := ctx.Optimize(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	platforms := ep.Platforms()
	if len(platforms) < 2 {
		t.Fatalf("expected a cross-platform plan, got %v\n%s", platforms, ep)
	}
	seen := map[string]bool{}
	for _, p := range platforms {
		seen[p] = true
	}
	if !seen["relstore"] {
		t.Fatalf("table scans should stay in the store: %v", platforms)
	}
}

// Job after job, the store holds the tables LoadPolystore put there and no
// more: a relational stage's result is not left behind as a table, so a
// process running Q5 repeatedly keeps a flat heap.
func TestQ5LeavesStoreAsLoaded(t *testing.T) {
	ctx := fastCtx(t)
	db := datagen.GenTPCH(0.2, 5)
	lay, err := LoadPolystore(ctx, db, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := ctx.RelStore(lay.Store)
	loaded := store.Tables()
	for i := 0; i < 3; i++ {
		if _, err := RunQ5(ctx, lay, "ASIA", 100); err != nil {
			t.Fatal(err)
		}
		if got := store.Tables(); !slices.Equal(got, loaded) {
			t.Fatalf("after job %d the store holds %v, want %v", i+1, got, loaded)
		}
	}
}

func TestLoadPolystorePlacesTables(t *testing.T) {
	ctx := fastCtx(t)
	db := datagen.GenTPCH(0.2, 3)
	dir := t.TempDir()
	lay, err := LoadPolystore(ctx, db, dir)
	if err != nil {
		t.Fatal(err)
	}
	store := ctx.RelStore(lay.Store)
	for _, tbl := range []string{"customer", "region", "supplier"} {
		tt, err := store.Table(tbl)
		if err != nil {
			t.Fatalf("table %s: %v", tbl, err)
		}
		if tt.RowCount() == 0 {
			t.Fatalf("table %s empty", tbl)
		}
	}
	if !ctx.DFS.Exists("tpch/lineitem.tbl") || !ctx.DFS.Exists("tpch/orders.tbl") {
		t.Fatal("DFS tables missing")
	}
	lines, err := core.ReadTextFile(lay.NationAt)
	if err != nil || len(lines) != 25 {
		t.Fatalf("nation local file: %d lines, %v", len(lines), err)
	}
}
