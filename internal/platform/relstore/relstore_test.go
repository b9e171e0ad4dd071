package relstore

import (
	"reflect"
	"testing"
	"testing/quick"

	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore("pg")
	tab, err := s.CreateTable("people", []Column{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "salary", Type: TFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []core.Record{
		{int64(1), "ann", 3000.0},
		{int64(2), "bob", 4000.0},
		{int64(3), "cid", 2500.0},
		{int64(4), "dee", 5200.0},
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	return s
}

func testDriver(t *testing.T) *Driver {
	t.Helper()
	return New(Config{Workers: 2}, newTestStore(t))
}

func TestConformanceRelationalSubset(t *testing.T) {
	// relstore maps only the relational kinds; the battery runs those.
	platformtest.Run(t, testDriver(t))
}

func TestTableBasics(t *testing.T) {
	s := newTestStore(t)
	tab, err := s.Table("people")
	if err != nil {
		t.Fatal(err)
	}
	if tab.RowCount() != 4 {
		t.Fatalf("rows = %d", tab.RowCount())
	}
	if _, err := s.Table("nope"); err == nil {
		t.Fatal("expected missing-table error")
	}
	if _, err := s.CreateTable("people", nil); err == nil {
		t.Fatal("expected duplicate-table error")
	}
	if got := s.Tables(); !reflect.DeepEqual(got, []string{"people"}) {
		t.Fatalf("Tables = %v", got)
	}
	if err := s.DropTable("people"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("people"); err == nil {
		t.Fatal("expected error on double drop")
	}
}

func TestInsertArityChecked(t *testing.T) {
	s := newTestStore(t)
	tab, _ := s.Table("people")
	if err := tab.Insert(core.Record{int64(9)}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestScanProjectionAndPredicate(t *testing.T) {
	s := newTestStore(t)
	tab, _ := s.Table("people")
	rows, err := tab.Scan([]int{1}, &Predicate{Col: 2, Op: core.PredGt, Value: 2900.0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		if len(r) != 1 {
			t.Fatalf("projection not applied: %v", r)
		}
		names[r.String(0)] = true
	}
	if len(names) != 3 || !names["ann"] || !names["bob"] || !names["dee"] {
		t.Fatalf("names = %v", names)
	}
}

func TestIndexProbeMatchesHeapScan(t *testing.T) {
	s := NewStore("x")
	tab, _ := s.CreateTable("t", []Column{{Name: "v", Type: TFloat}})
	for i := 0; i < 500; i++ {
		tab.Insert(core.Record{float64((i * 37) % 101)})
	}
	preds := []Predicate{
		{Col: 0, Op: core.PredEq, Value: 50.0},
		{Col: 0, Op: core.PredLt, Value: 10.0},
		{Col: 0, Op: core.PredLe, Value: 10.0},
		{Col: 0, Op: core.PredGt, Value: 90.0},
		{Col: 0, Op: core.PredGe, Value: 90.0},
	}
	// Heap-scan answers (no index yet).
	want := make([][]core.Record, len(preds))
	for i, p := range preds {
		p := p
		rows, err := tab.Scan(nil, &p, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rows
	}
	if err := tab.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	if !tab.HasIndex(0) {
		t.Fatal("index not registered")
	}
	for i, p := range preds {
		p := p
		rows, err := tab.Scan(nil, &p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want[i]) {
			t.Fatalf("pred %v: index %d rows, heap %d rows", p, len(rows), len(want[i]))
		}
		sum := func(rs []core.Record) (s float64) {
			for _, r := range rs {
				s += r.Float(0)
			}
			return
		}
		if sum(rows) != sum(want[i]) {
			t.Fatalf("pred %v: index and heap disagree", p)
		}
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	s := NewStore("x")
	tab, _ := s.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	tab.CreateIndex(0)
	for i := 10; i > 0; i-- {
		tab.Insert(core.Record{int64(i)})
	}
	rows, err := tab.Scan(nil, &Predicate{Col: 0, Op: core.PredLe, Value: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("indexed probe after inserts = %d rows", len(rows))
	}
}

func TestStringIndexEquality(t *testing.T) {
	s := NewStore("x")
	tab, _ := s.CreateTable("t", []Column{{Name: "n", Type: TString}})
	for _, n := range []string{"cherry", "apple", "banana", "apple"} {
		tab.Insert(core.Record{n})
	}
	tab.CreateIndex(0)
	rows, err := tab.Scan(nil, &Predicate{Col: 0, Op: core.PredEq, Value: "apple"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("apple rows = %d", len(rows))
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	s := NewStore("x")
	tab, _ := s.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	var rows []core.Record
	for i := 0; i < 10000; i++ {
		rows = append(rows, core.Record{int64(i % 97)})
	}
	tab.Insert(rows...)
	pred := &Predicate{Col: 0, Op: core.PredLt, Value: 10}
	serial, _ := tab.Scan(nil, pred, 1)
	parallel, _ := tab.Scan(nil, pred, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d != parallel %d", len(serial), len(parallel))
	}
}

func TestPredicateEvalProperty(t *testing.T) {
	f := func(v, bound int16, opPick uint8) bool {
		ops := []core.PredOp{core.PredEq, core.PredLt, core.PredLe, core.PredGt, core.PredGe}
		op := ops[int(opPick)%len(ops)]
		p := core.Predicate{Col: 0, Op: op, Value: float64(bound)}
		got := p.Eval(core.Record{float64(v)})
		var want bool
		switch op {
		case core.PredEq:
			want = v == bound
		case core.PredLt:
			want = v < bound
		case core.PredLe:
			want = v <= bound
		case core.PredGt:
			want = v > bound
		case core.PredGe:
			want = v >= bound
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableSourceExecWithPushdown(t *testing.T) {
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindTableSource, Params: core.Params{
		Table:   "people",
		Store:   "pg",
		Columns: []int{0, 2},
		Where:   &core.Predicate{Col: 2, Op: core.PredGe, Value: 4000.0},
	}}
	got := platformtest.RunOp(t, d, op)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	for _, q := range got {
		r := q.(core.Record)
		if len(r) != 2 {
			t.Fatalf("projection not pushed: %v", r)
		}
	}
}

func TestDeclarativeFilterUsesBaseTable(t *testing.T) {
	d := testDriver(t)
	// Filter consuming a relation channel directly probes the table.
	store, _ := d.StoreByName("pg")
	ch := core.NewChannel(RelationChannel, TableRef{Store: store, Table: "people"}, 4)
	op := &core.Operator{Kind: core.KindFilter, Params: core.Params{
		Where: &core.Predicate{Col: 0, Op: core.PredEq, Value: int64(2)},
	}}
	got, _, err := platformtest.RunOpErr(d, op, ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].(core.Record).String(1) != "bob" {
		t.Fatalf("got %v", got)
	}
}

func TestDeclarativeFilterWithUDFPredicate(t *testing.T) {
	// A filter carrying both predicates follows the one rule there is: the
	// UDF wins (driverutil.PredOf), so the Where is not pushed into the index.
	d := testDriver(t)
	store, _ := d.StoreByName("pg")
	ch := core.NewChannel(RelationChannel, TableRef{Store: store, Table: "people"}, 4)
	op := &core.Operator{Kind: core.KindFilter,
		UDF:    core.UDFs{Pred: func(q any) bool { return q.(core.Record).String(1) == "dee" }},
		Params: core.Params{Where: &core.Predicate{Col: 0, Op: core.PredEq, Value: int64(2)}},
	}
	got, _, err := platformtest.RunOpErr(d, op, ch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].(core.Record).String(1) != "dee" {
		t.Fatalf("got %v, want the UDF predicate's row", got)
	}
}

func TestNonRelationalKindRejected(t *testing.T) {
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q }}}
	if _, _, err := platformtest.RunOpErr(d, op, platformtest.CollectionChannel(int64(1))); err == nil {
		t.Fatal("relstore must reject arbitrary UDF operators")
	}
	// Nor may a non-relational kind ride into the store inside a longer chain.
	p := core.NewPlan("map-map")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{int64(1)}
	m1, m2 := *op, *op
	p.Chain(src, p.Add(&m1), p.Add(&m2))
	if _, _, err := platformtest.ExecPlan(d, p, nil); err == nil {
		t.Fatal("relstore must reject a chain of arbitrary UDF operators")
	}
}

func TestConversionsExportAndLoad(t *testing.T) {
	d := testDriver(t)
	convs := map[string]*core.Conversion{}
	for _, cv := range d.Conversions() {
		convs[cv.Name] = cv
	}
	store, _ := d.StoreByName("pg")
	ch := core.NewChannel(RelationChannel, TableRef{Store: store, Table: "people"}, 4)
	coll, err := convs["relstore.export"].Convert(ch)
	if err != nil {
		t.Fatal(err)
	}
	data := coll.Payload.(*core.SliceDataset).Data
	if len(data) != 4 {
		t.Fatalf("export rows = %d", len(data))
	}
	back, err := convs["relstore.load"].Convert(coll)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Payload.(TableRef).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, data) || back.Card != 4 {
		t.Fatalf("loaded rows = %v (card %d)", rows, back.Card)
	}
	if _, err := convs["relstore.load"].Convert(platformtest.CollectionChannel(int64(1))); err == nil {
		t.Fatal("loading non-record quanta must fail")
	}
}

// Neither a stage's result nor a load is written into the store as a table:
// nothing would drop it, so a process running job after job would keep every
// job's intermediate rows.
func TestResultsLeaveNoTablesBehind(t *testing.T) {
	d := testDriver(t)
	store, _ := d.StoreByName("pg")
	scan := &core.Operator{Kind: core.KindTableSource, Params: core.Params{Table: "people", Store: "pg"}}
	for i := 0; i < 3; i++ {
		if got := platformtest.RunOp(t, d, scan); len(got) != 4 {
			t.Fatalf("scan = %v", got)
		}
	}
	for _, cv := range d.Conversions() {
		if cv.Name == "relstore.load" {
			if _, err := cv.Convert(platformtest.CollectionChannel(core.Record{int64(5), "eve", 1.0})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := store.Tables(); !reflect.DeepEqual(got, []string{"people"}) {
		t.Fatalf("store tables after three stages and a load = %v, want only the base table", got)
	}
}

func TestMappingsAreRelationalOnly(t *testing.T) {
	d := testDriver(t)
	r := core.NewMappingRegistry()
	d.RegisterMappings(r)
	if alts := r.Alternatives(&core.Operator{Kind: core.KindMap}); len(alts) != 0 {
		t.Fatal("relstore must not claim Map")
	}
	if alts := r.Alternatives(&core.Operator{Kind: core.KindTableSource}); len(alts) != 1 {
		t.Fatal("relstore must claim TableSource")
	}
}
