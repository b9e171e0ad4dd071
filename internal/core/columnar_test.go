package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// --- batch construction and row round trips -------------------------------

func TestBatchFromRowsTypedColumns(t *testing.T) {
	rows := []any{
		Record{int64(1), 1.5, "a", true},
		Record{int64(2), 2.5, "b", false},
		Record{int64(3), 3.5, "c", true},
	}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed on uniform records")
	}
	if b.Len() != 3 || b.Width() != 4 || b.Scalar() {
		t.Fatalf("len=%d width=%d scalar=%v", b.Len(), b.Width(), b.Scalar())
	}
	for c, want := range []ColType{ColInt64, ColFloat64, ColString, ColBool} {
		if b.Cols[c].Type != want {
			t.Fatalf("col %d type = %s, want %s", c, b.Cols[c].Type, want)
		}
		if b.Cols[c].Valid != nil {
			t.Fatalf("col %d has a validity bitmap with no nulls", c)
		}
	}
	got := b.AppendRows(nil)
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip %v, want %v", got, rows)
	}
}

func TestBatchFromRowsNullsAndEscape(t *testing.T) {
	rows := []any{
		Record{int64(1), nil, "x"},
		Record{nil, KV{Key: "k", Value: int64(2)}, "y"},
		Record{int64(3), 2.5, nil},
	}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed")
	}
	// Col 0: int64 with nulls; col 1: mixed → escape; col 2: string with nulls.
	if b.Cols[0].Type != ColInt64 || b.Cols[0].Valid == nil {
		t.Fatalf("col 0: type %s valid %v", b.Cols[0].Type, b.Cols[0].Valid)
	}
	if b.Cols[1].Type != ColAny {
		t.Fatalf("mixed col 1 type = %s, want any", b.Cols[1].Type)
	}
	if b.Cols[2].Type != ColString || b.Cols[2].Valid == nil {
		t.Fatalf("col 2: type %s", b.Cols[2].Type)
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip %v, want %v", got, rows)
	}
}

func TestBatchFromRowsScalar(t *testing.T) {
	rows := []any{int64(7), int64(8), int64(9)}
	b, ok := BatchFromRows(rows)
	if !ok || !b.Scalar() || b.Width() != 1 {
		t.Fatalf("scalar batch: ok=%v scalar=%v width=%d", ok, b.Scalar(), b.Width())
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip %v, want %v", got, rows)
	}
	// Go int is not a column kind: the batch must refuse, not coerce.
	if _, ok := BatchFromRows([]any{1, 2, 3}); ok {
		t.Fatal("BatchFromRows accepted Go ints as scalars")
	}
}

func TestBatchFromRowsRejects(t *testing.T) {
	cases := map[string][]any{
		"empty":         {},
		"mixed widths":  {Record{int64(1)}, Record{int64(1), int64(2)}},
		"kv":            {KV{Key: "a", Value: int64(1)}},
		"record+scalar": {Record{int64(1)}, int64(2)},
		"slices":        {[]any{int64(1)}},
	}
	for name, rows := range cases {
		if _, ok := BatchFromRows(rows); ok {
			t.Errorf("%s: BatchFromRows accepted %v", name, rows)
		}
	}
}

// allNilRows exercises the all-nil column escape: no typed value ever seen.
func TestBatchFromRowsAllNilColumn(t *testing.T) {
	rows := []any{Record{nil, int64(1)}, Record{nil, int64(2)}}
	b, ok := BatchFromRows(rows)
	if !ok {
		t.Fatal("BatchFromRows failed")
	}
	if b.Cols[0].Type != ColAny {
		t.Fatalf("all-nil col type = %s, want any", b.Cols[0].Type)
	}
	if got := b.AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip %v, want %v", got, rows)
	}
}

// --- column codec ---------------------------------------------------------

// randBatchRows generates a random batchable row set: either scalars or
// records with per-column value generators covering all four typed kinds,
// nulls, and the mixed escape.
func randBatchRows(rng *rand.Rand) []any {
	n := 1 + rng.Intn(200)
	if rng.Intn(4) == 0 { // scalars
		rows := make([]any, n)
		for i := range rows {
			switch rng.Intn(4) {
			case 0:
				rows[i] = rng.Int63n(1000) - 500
			case 1:
				rows[i] = rng.Float64() * 100
			case 2:
				rows[i] = fmt.Sprintf("s%d", rng.Intn(50))
			default:
				rows[i] = rng.Intn(2) == 0
			}
		}
		return rows
	}
	w := 1 + rng.Intn(5)
	kinds := make([]int, w)
	for c := range kinds {
		kinds[c] = rng.Intn(7) // 0-3 typed, 4 typed+nulls, 5 mixed, 6 all-nil
	}
	rows := make([]any, n)
	for i := range rows {
		rec := make(Record, w)
		for c := range rec {
			switch kinds[c] {
			case 0:
				rec[c] = rng.Int63n(1 << 40)
			case 1:
				rec[c] = rng.NormFloat64()
			case 2:
				rec[c] = strings.Repeat("x", rng.Intn(8)) + fmt.Sprint(rng.Intn(99))
			case 3:
				rec[c] = rng.Intn(2) == 0
			case 4:
				if rng.Intn(3) == 0 {
					rec[c] = nil
				} else {
					rec[c] = rng.Int63n(100)
				}
			case 5:
				switch rng.Intn(3) {
				case 0:
					rec[c] = rng.Int63n(100)
				case 1:
					rec[c] = rng.Float64()
				default:
					rec[c] = KV{Key: fmt.Sprint(rng.Intn(9)), Value: rng.Int63n(9)}
				}
			case 6:
				rec[c] = nil
			}
		}
		rows[i] = rec
	}
	return rows
}

func TestColumnBatchCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	for trial := 0; trial < 40; trial++ {
		rows := randBatchRows(rng)
		b, ok := BatchFromRows(rows)
		if !ok {
			t.Fatalf("trial %d: BatchFromRows failed on %v", trial, rows[0])
		}
		enc, err := AppendColumnBatchBinary(nil, b)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		q, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		db, ok := q.(*ColumnBatch)
		if !ok {
			t.Fatalf("trial %d: decoded %T, want *ColumnBatch", trial, q)
		}
		got := db.AppendRows(nil)
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("trial %d: round trip mismatch\n got %v\nwant %v", trial, got, rows)
		}
	}
}

func TestColumnBatchCodecBoolPackingRemainder(t *testing.T) {
	// 11 bools exercises the packed-bit remainder flush (not a multiple of 8).
	rows := make([]any, 11)
	for i := range rows {
		rows[i] = i%3 == 0
	}
	b, _ := BatchFromRows(rows)
	enc, err := AppendColumnBatchBinary(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	q, err := decodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.(*ColumnBatch).AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("bool round trip %v, want %v", got, rows)
	}
}

// corruptionGuardRows are the rows of TestColumnBatchCodecCorruptionGuards'
// batch: an int column with a hole, a string column and a bool column.
var corruptionGuardRows = []any{Record{int64(1), "a", true}, Record{nil, "b", false}}

func TestColumnBatchCodecCorruptionGuards(t *testing.T) {
	b, _ := BatchFromRows(corruptionGuardRows)
	enc, err := AppendColumnBatchBinary(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must error, never panic or mis-decode.
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeFrame(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestEncodeSliceBatchedRoundTrip(t *testing.T) {
	// Enough rows to span multiple batch frames plus an unbatchable tail.
	var quanta []any
	for i := 0; i < 2*CodecBatchRows+100; i++ {
		quanta = append(quanta, Record{int64(i), fmt.Sprintf("r%d", i%17)})
	}
	quanta = append(quanta, KV{Key: "tail", Value: int64(1)}) // breaks batching

	var buf bytes.Buffer
	if err := WriteQuantaStream(&buf, quanta); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQuantaStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, quanta) {
		t.Fatalf("stream round trip mismatch: %d vs %d quanta", len(got), len(quanta))
	}

	// A chunk shorter than minBatchRows takes row framing — one frame per
	// quantum, no batch frame — and still round-trips.
	short := quanta[:minBatchRows-1]
	var rowBuf bytes.Buffer
	if err := WriteQuantaStream(&rowBuf, short); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadQuantaStreamSegments(bytes.NewReader(rowBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Batch != nil || !reflect.DeepEqual(segs[0].Rows, short) {
		t.Fatalf("short chunk came back as %d segments (batch=%v), want one row run of %d",
			len(segs), len(segs) > 0 && segs[0].Batch != nil, len(short))
	}
}

func TestTryAppendBatchSmallRunsStayRowFramed(t *testing.T) {
	small := make([]any, minBatchRows-1)
	for i := range small {
		small[i] = int64(i)
	}
	if _, ok, err := TryAppendBatch(nil, small); ok || err != nil {
		t.Fatalf("small run: ok=%v err=%v, want batching refused", ok, err)
	}
	big := make([]any, minBatchRows)
	for i := range big {
		big[i] = int64(i)
	}
	if _, ok, err := TryAppendBatch(nil, big); !ok || err != nil {
		t.Fatalf("batchable run: ok=%v err=%v", ok, err)
	}
}

// --- selection vectors and vectorized operators ---------------------------

func TestFilterSelDropAllDropNothing(t *testing.T) {
	rows := []any{
		Record{int64(1), "a"}, Record{int64(2), "b"}, Record{int64(3), "c"},
	}
	b, _ := BatchFromRows(rows)

	keepAll := &Predicate{Col: 0, Op: PredGe, Value: int64(0)}
	if !b.VecFilterOK(0, keepAll) {
		t.Fatal("VecFilterOK refused a plain int column")
	}
	sel := b.FilterSel(0, keepAll, nil, nil)
	if !reflect.DeepEqual(sel, []int{0, 1, 2}) {
		t.Fatalf("drop-nothing sel = %v", sel)
	}

	dropAll := &Predicate{Col: 0, Op: PredLt, Value: int64(0)}
	sel = b.FilterSel(0, dropAll, nil, make([]int, 0, 3))
	if len(sel) != 0 || sel == nil {
		// Empty-but-non-nil distinguishes "all filtered" from "no selection".
		t.Fatalf("drop-all sel = %v (nil=%v)", sel, sel == nil)
	}
	if out := b.EmitRows(nil, sel, nil); len(out) != 0 {
		t.Fatalf("drop-all emitted %v", out)
	}

	// String predicate on the string column, chained through a prior sel.
	strPred := &Predicate{Col: 1, Op: PredGt, Value: "a"}
	if !b.VecFilterOK(1, strPred) {
		t.Fatal("VecFilterOK refused a string column for a string predicate")
	}
	sel = b.FilterSel(1, strPred, []int{0, 2}, nil)
	if !reflect.DeepEqual(sel, []int{2}) {
		t.Fatalf("chained sel = %v, want [2]", sel)
	}

	// Mismatched domains are ineligible, not wrong.
	if b.VecFilterOK(1, keepAll) {
		t.Fatal("VecFilterOK accepted numeric predicate on string column")
	}
	if b.VecFilterOK(0, strPred) {
		t.Fatal("VecFilterOK accepted string predicate on int column")
	}
	if b.VecFilterOK(5, keepAll) {
		t.Fatal("VecFilterOK accepted out-of-range column")
	}
}

func TestFilterSelMatchesRowEval(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(100)
		rows := make([]any, n)
		useFloat := rng.Intn(2) == 0
		for i := range rows {
			if useFloat {
				rows[i] = Record{float64(rng.Intn(20)) / 2}
			} else {
				rows[i] = Record{int64(rng.Intn(20) - 10)}
			}
		}
		b, _ := BatchFromRows(rows)
		p := &Predicate{Col: 0, Op: PredOp(rng.Intn(5)), Value: float64(rng.Intn(10) - 5)}
		if !b.VecFilterOK(0, p) {
			t.Fatal("eligible batch refused")
		}
		sel := b.FilterSel(0, p, nil, nil)
		var want []int
		for i, q := range rows {
			if p.Eval(q.(Record)) {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(sel, want) && !(len(sel) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: sel %v, row eval %v (pred %s)", trial, sel, want, p)
		}
	}
}

func TestApplyNumExprIntInPlaceAndFloatMigration(t *testing.T) {
	rows := []any{Record{int64(10)}, Record{int64(20)}, Record{int64(30)}}
	b, _ := BatchFromRows(rows)
	add := &MapExpr{Col: 0, Op: NumAdd, Operand: int64(5)}
	if !b.VecMapOK(0, add) {
		t.Fatal("VecMapOK refused int column + int operand")
	}
	b.ApplyNumExpr(0, add, nil)
	if b.Cols[0].Type != ColInt64 {
		t.Fatalf("int+int migrated to %s", b.Cols[0].Type)
	}
	got := b.AppendRows(nil)
	want := []any{Record{int64(15)}, Record{int64(25)}, Record{int64(35)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("int add: %v, want %v", got, want)
	}

	// Fractional operand migrates the column to float64, matching
	// MapExpr.Apply's result domain.
	b2, _ := BatchFromRows([]any{Record{int64(4)}, Record{int64(8)}})
	mul := &MapExpr{Col: 0, Op: NumMul, Operand: 0.5}
	b2.ApplyNumExpr(0, mul, nil)
	if b2.Cols[0].Type != ColFloat64 {
		t.Fatalf("int*0.5 column type = %s, want float64", b2.Cols[0].Type)
	}
	got = b2.AppendRows(nil)
	want = []any{Record{2.0}, Record{4.0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("float migration: %v, want %v", got, want)
	}

	// Selection-restricted rewrite: unselected rows are dead, but selected
	// rows must be rewritten and emitted from the typed buffer.
	b3, _ := BatchFromRows([]any{Record{int64(1)}, Record{int64(2)}, Record{int64(3)}})
	b3.ApplyNumExpr(0, &MapExpr{Col: 0, Op: NumSub, Operand: int64(1)}, []int{0, 2})
	got = b3.EmitRows(nil, []int{0, 2}, nil)
	want = []any{Record{int64(0)}, Record{int64(2)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sel rewrite: %v, want %v", got, want)
	}

	// Ineligible shapes.
	sb, _ := BatchFromRows([]any{Record{"s"}})
	if sb.VecMapOK(0, add) {
		t.Fatal("VecMapOK accepted string column")
	}
	if b.VecMapOK(0, &MapExpr{Col: 0, Op: NumAdd, Operand: "x"}) {
		t.Fatal("VecMapOK accepted non-numeric operand")
	}
}

func TestEmitRowsProjection(t *testing.T) {
	rows := []any{Record{int64(1), "a", true}, Record{int64(2), "b", false}}
	b, _ := BatchFromRows(rows)
	got := b.EmitRows(nil, nil, []int{2, 0})
	want := []any{Record{true, int64(1)}, Record{false, int64(2)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projection: %v, want %v", got, want)
	}
	// Identity emission of a clean batch reuses the original boxed rows.
	out := b.EmitRows(nil, nil, nil)
	if &out[0] == nil || out[0].(Record)[0] != rows[0].(Record)[0] {
		t.Fatal("identity emission lost original values")
	}
}

// --- declarative expressions ----------------------------------------------

func TestEvalQuantum(t *testing.T) {
	// WholeQuantum numeric, against int64 and float64 quanta.
	p := &Predicate{Col: WholeQuantum, Op: PredGt, Value: int64(5)}
	if !p.EvalQuantum(int64(6)) || p.EvalQuantum(int64(5)) || !p.EvalQuantum(5.5) {
		t.Fatal("WholeQuantum numeric comparison wrong")
	}
	// WholeQuantum string.
	ps := &Predicate{Col: WholeQuantum, Op: PredEq, Value: "b"}
	if !ps.EvalQuantum("b") || ps.EvalQuantum("a") {
		t.Fatal("WholeQuantum string comparison wrong")
	}
	// Field predicate on a non-Record filters out rather than erroring.
	pf := &Predicate{Col: 0, Op: PredEq, Value: int64(1)}
	if pf.EvalQuantum(int64(1)) {
		t.Fatal("field predicate matched a bare scalar")
	}
	if !pf.EvalQuantum(Record{int64(1)}) {
		t.Fatal("field predicate missed a matching record")
	}
	// Non-numeric quantum under a numeric WholeQuantum predicate panics,
	// like Record.Float does.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not numeric") {
				t.Fatalf("panic = %v", r)
			}
		}()
		p.EvalQuantum(struct{}{})
	}()
}

func TestMapExprApply(t *testing.T) {
	// Whole-quantum int64 stays integral under an integral operand.
	e := MapExpr{Col: WholeQuantum, Op: NumMul, Operand: int64(3)}
	if got := e.Apply(int64(4)); got != int64(12) {
		t.Fatalf("int64*3 = %v (%T)", got, got)
	}
	// int operand counts as integral; int32 too.
	e2 := MapExpr{Col: WholeQuantum, Op: NumAdd, Operand: 2}
	if got := e2.Apply(int64(1)); got != int64(3) {
		t.Fatalf("int64+int = %v (%T)", got, got)
	}
	e3 := MapExpr{Col: WholeQuantum, Op: NumAdd, Operand: int32(2)}
	if got := e3.Apply(int64(1)); got != int64(3) {
		t.Fatalf("int64+int32 = %v (%T)", got, got)
	}
	// Float domain otherwise.
	if got := e.Apply(1.5); got != 4.5 {
		t.Fatalf("1.5*3 = %v", got)
	}
	e4 := MapExpr{Col: WholeQuantum, Op: NumSub, Operand: 0.5}
	if got := e4.Apply(int64(2)); got != 1.5 {
		t.Fatalf("int64-0.5 = %v (%T)", got, got)
	}

	// Field form copies the record: the input must not be mutated.
	ef := MapExpr{Col: 1, Op: NumAdd, Operand: int64(10)}
	in := Record{"k", int64(1)}
	out := ef.Apply(in).(Record)
	if out[1] != int64(11) || in[1] != int64(1) || out[0] != "k" {
		t.Fatalf("field map: out=%v in=%v", out, in)
	}
	// Fn wraps Apply.
	if got := ef.Fn()(Record{"k", int64(2)}).(Record)[1]; got != int64(12) {
		t.Fatalf("Fn = %v", got)
	}

	// Panic messages for ill-typed input.
	for _, tc := range []struct {
		e    MapExpr
		q    any
		want string
	}{
		{MapExpr{Col: 0, Op: NumAdd, Operand: int64(1)}, int64(1), "is not a Record"},
		{MapExpr{Col: WholeQuantum, Op: NumAdd, Operand: int64(1)}, "s", "is not numeric"},
		{MapExpr{Col: WholeQuantum, Op: NumAdd, Operand: "s"}, int64(1), "is not numeric"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("%s on %v: panic = %v, want %q", tc.e.String(), tc.q, r, tc.want)
				}
			}()
			tc.e.Apply(tc.q)
		}()
	}
}

// --- record coercion edge cases -------------------------------------------

func TestRecordCoercionEdgeCases(t *testing.T) {
	r := Record{float32(1.5), int32(7), uint64(9), "s", int64(3), 2.5}
	if got := r.Float(0); got != 1.5 {
		t.Fatalf("Float(float32) = %v", got)
	}
	if got := r.Float(1); got != 7 {
		t.Fatalf("Float(int32) = %v", got)
	}
	if got := r.Float(2); got != 9 {
		t.Fatalf("Float(uint64) = %v", got)
	}
	if got := r.Int(1); got != 7 {
		t.Fatalf("Int(int32) = %v", got)
	}
	if got := r.Int(2); got != 9 {
		t.Fatalf("Int(uint64) = %v", got)
	}
	if got := r.Int(0); got != 1 {
		t.Fatalf("Int(float32 1.5) = %v, want truncation to 1", got)
	}
	if got := r.Int(5); got != 2 {
		t.Fatalf("Int(float64 2.5) = %v", got)
	}

	check := func(f func(), want string) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("panic = %v, want %q", r, want)
			}
		}()
		f()
	}
	check(func() { r.Float(3) }, "not numeric")
	check(func() { r.Int(3) }, "not integral")
}
