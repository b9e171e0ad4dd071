package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// --- dictionary-encoded string columns ------------------------------------

func TestDictColumnBuiltForLowCardinality(t *testing.T) {
	rows := make([]any, 100)
	for i := range rows {
		rows[i] = Record{int64(i), fmt.Sprintf("g%d", i%5)}
	}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed")
	}
	col := b.Cols[1]
	if !col.DictEncoded() {
		t.Fatal("low-cardinality string column not dictionary-encoded")
	}
	if len(col.Dict) != 5 {
		t.Fatalf("dict size = %d, want 5", len(col.Dict))
	}
	// First-occurrence order of the distinct values.
	for i := 0; i < 5; i++ {
		if col.Dict[i] != fmt.Sprintf("g%d", i) {
			t.Fatalf("dict[%d] = %q", i, col.Dict[i])
		}
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatal("dict batch does not reproduce rows")
	}
}

func TestDictColumnSkippedForHighCardinality(t *testing.T) {
	// Every value distinct: dictMinRowsPer forbids the dictionary.
	rows := make([]any, 64)
	for i := range rows {
		rows[i] = Record{fmt.Sprintf("unique-%d", i)}
	}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed")
	}
	if b.Cols[0].DictEncoded() {
		t.Fatal("high-cardinality column should not be dictionary-encoded")
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatal("plain string batch does not reproduce rows")
	}
}

func TestDictColumnCodecRoundTripAndCorruption(t *testing.T) {
	rows := make([]any, 80)
	for i := range rows {
		var s any = fmt.Sprintf("v%d", i%7)
		if i%11 == 0 {
			s = nil // validity holes must survive the dictionary frame
		}
		rows[i] = Record{s, int64(i)}
	}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed")
	}
	if !b.Cols[0].DictEncoded() {
		t.Fatal("expected a dictionary column")
	}
	enc, err := AppendColumnBatchBinary(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	q, err := decodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	db := q.(*ColumnBatch)
	if !db.Cols[0].DictEncoded() {
		t.Fatal("decoded column lost its dictionary form")
	}
	if got := db.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("dict codec round trip mismatch:\n got %v\nwant %v", got[:4], rows[:4])
	}
	// Every strict prefix must error, never panic or mis-decode.
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeFrame(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestFilterSelDictMatchesRowEval(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	rows := make([]any, 300)
	for i := range rows {
		rows[i] = Record{fmt.Sprintf("g%d", rng.Intn(6)), int64(i)}
	}
	b, _ := BatchFromRows(rows)
	if !b.Cols[0].DictEncoded() {
		t.Fatal("expected dictionary column")
	}
	base := make([]int, len(rows))
	for i := range base {
		base[i] = i
	}
	for _, p := range []Predicate{
		{Col: 0, Op: PredEq, Value: "g3"},
		{Col: 0, Op: PredLt, Value: "g3"},
		{Col: 0, Op: PredGe, Value: "g2"},
		{Col: 0, Op: PredPrefix, Value: "g"},
		{Col: 0, Op: PredPrefix, Value: "g4"},
		{Col: 0, Op: PredEq, Value: "absent"},
	} {
		p := p
		sel := b.FilterSel(0, &p, base, nil)
		fn := p.Fn()
		var want []int
		for i, q := range rows {
			if fn(q) {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(sel, want) && !(len(sel) == 0 && len(want) == 0) {
			t.Fatalf("pred %v: sel %v want %v", p, sel, want)
		}
	}
}

// --- lazy per-column construction ------------------------------------------

func TestBatchFromRowsNeedingBuildsOnlyNeeded(t *testing.T) {
	rows := make([]any, 50)
	for i := range rows {
		rows[i] = Record{int64(i), "wide-string-payload", float64(i) / 2}
	}
	b, ok := BatchFromRowsNeeding(rows, []int{0, 2, 9, -3})
	if !ok {
		t.Fatal("BatchFromRowsNeeding failed")
	}
	if b.Cols[0] == nil || b.Cols[2] == nil {
		t.Fatal("needed columns not built")
	}
	if b.Cols[1] != nil {
		t.Fatal("unneeded column was built")
	}
	// Emission reads clean columns from the original boxed rows, so the
	// unbuilt column round-trips regardless.
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatal("lazy batch does not reproduce rows")
	}
	// A selection-vector emission also survives unbuilt columns.
	out := b.EmitRows(nil, []int{3, 7}, nil)
	if len(out) != 2 || !reflect.DeepEqual(out[0], rows[3]) || !reflect.DeepEqual(out[1], rows[7]) {
		t.Fatalf("selective emission over lazy batch = %v", out)
	}
}

// --- grouped-aggregation state ---------------------------------------------

func randAggRows(rng *rand.Rand, n int) []any {
	rows := make([]any, n)
	for i := range rows {
		rows[i] = Record{
			fmt.Sprintf("g%d", rng.Intn(5)),
			int64(rng.Intn(50) - 25),
			float64(rng.Intn(40)) / 4,
			int64(rng.Intn(3)),
		}
	}
	return rows
}

func TestAggStateBatchMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	expr := &ReduceExpr{
		GroupCols: []int{0, 3},
		Aggs: []AggSpec{
			{Op: AggSum, Col: 1},
			{Op: AggCount, Col: WholeQuantum},
			{Op: AggMin, Col: 1},
			{Op: AggMax, Col: 2},
			{Op: AggAvg, Col: 2},
		},
	}
	for trial := 0; trial < 20; trial++ {
		rows := randAggRows(rng, 100+rng.Intn(400))
		b, ok := BatchFromRows(rows)
		if !ok {
			t.Fatal("BatchFromRows failed")
		}
		sel := make([]int, 0, len(rows))
		for i := range rows {
			if rng.Intn(4) > 0 {
				sel = append(sel, i)
			}
		}
		stB := NewAggState(expr)
		if !stB.PlanBatch(b, nil) {
			t.Fatal("PlanBatch refused a clean batch")
		}
		if !stB.AbsorbBatch(b, sel, nil) {
			t.Fatal("AbsorbBatch refused after PlanBatch accepted")
		}
		stR := NewAggState(expr)
		for _, i := range sel {
			stR.AbsorbRow(rows[i])
		}
		got, want := stB.Finalize(nil), stR.Finalize(nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: batch absorb differs from row absorb\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestAggStatePartialMergeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1213))
	expr := &ReduceExpr{
		GroupCols: []int{0},
		Aggs: []AggSpec{
			{Op: AggSum, Col: 1},
			{Op: AggAvg, Col: 2},
			{Op: AggCount, Col: WholeQuantum},
		},
	}
	rows := randAggRows(rng, 600)
	// Direct: one state over all rows.
	direct := NewAggState(expr)
	direct.AbsorbRows(rows)
	want := direct.Finalize(nil)
	// Two-phase: partials per slice, merged in slice order.
	var partials []any
	for i := 0; i < len(rows); i += 150 {
		st := NewAggState(expr)
		st.AbsorbRows(rows[i:min(i+150, len(rows))])
		partials = st.Partials(partials)
	}
	merged := NewAggState(expr)
	merged.AbsorbPartials(partials)
	got := merged.Finalize(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial merge differs from direct aggregation\n got %v\nwant %v", got, want)
	}
}

func TestAggStatePlanBatchRejects(t *testing.T) {
	expr := &ReduceExpr{GroupCols: []int{0}, Aggs: []AggSpec{{Op: AggSum, Col: 1}}}

	// Scalar batch: no record columns to group on.
	sb, _ := BatchFromRows([]any{int64(1), int64(2), int64(3), int64(4)})
	if NewAggState(expr).PlanBatch(sb, nil) {
		t.Fatal("PlanBatch accepted a scalar batch")
	}

	// Validity hole in the aggregate column.
	rows := []any{Record{"a", int64(1)}, Record{"a", nil}, Record{"b", int64(2)}}
	hb, _ := BatchFromRows(rows)
	if NewAggState(expr).PlanBatch(hb, nil) {
		t.Fatal("PlanBatch accepted a batch with a null aggregate value")
	}

	// Non-numeric aggregate column.
	srows := []any{Record{"a", "x"}, Record{"b", "y"}}
	nb, _ := BatchFromRows(srows)
	if NewAggState(expr).PlanBatch(nb, nil) {
		t.Fatal("PlanBatch accepted a string aggregate column")
	}

	// Unbuilt (lazy) group column.
	lb, _ := BatchFromRowsNeeding([]any{Record{"a", int64(1)}, Record{"b", int64(2)}}, []int{1})
	if NewAggState(expr).PlanBatch(lb, nil) {
		t.Fatal("PlanBatch accepted a batch whose group column was never built")
	}
}
