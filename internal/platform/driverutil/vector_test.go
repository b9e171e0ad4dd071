package driverutil

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rheem/internal/core"
)

// declChain builds filter(Where) → map(MapExpr) → project → opaque-map: the
// first three vectorize, the last is an opaque UDF.
func declChain() []*core.Operator {
	p := core.NewPlan("vec-test")
	f := p.NewOperator(core.KindFilter, "where")
	f.Params.Where = &core.Predicate{Col: 0, Op: PredGtZero.Op, Value: PredGtZero.Value}
	m := p.NewOperator(core.KindMap, "addexpr")
	e := core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(10)}
	m.UDF.MapExpr = &e
	m.UDF.Map = e.Fn()
	pr := p.NewOperator(core.KindProject, "proj")
	pr.Params.Columns = []int{1, 0}
	om := p.NewOperator(core.KindMap, "opaque")
	om.UDF.Map = func(q any) any { return q.(core.Record)[1] }
	return []*core.Operator{f, m, pr, om}
}

// PredGtZero is shared by declChain so tests can reference the same filter.
var PredGtZero = core.Predicate{Col: 0, Op: core.PredGt, Value: int64(0)}

func compileBoth(t *testing.T, ops []*core.Operator) (*VectorKernel, *FusedKernel) {
	t.Helper()
	row, err := CompileChain(ops)
	if err != nil {
		t.Fatal(err)
	}
	k := CompileVector(ops, nil, row)
	ref, err := CompileChain(ops) // independent kernel for the row reference
	if err != nil {
		t.Fatal(err)
	}
	return k, ref
}

func TestCompileVectorPrefix(t *testing.T) {
	ops := declChain()
	k, _ := compileBoth(t, ops)
	if k.VecLen() != 3 || k.Len() != 4 {
		t.Fatalf("VecLen=%d Len=%d, want 3/4", k.VecLen(), k.Len())
	}

	// An opaque filter (UDF.Pred set) is not vectorizable even with a Where:
	// the row path prefers the UDF and the two paths must agree.
	p := core.NewPlan("opaque-head")
	f := p.NewOperator(core.KindFilter, "both")
	f.UDF.Pred = func(q any) bool { return true }
	f.Params.Where = &core.Predicate{Col: 0, Op: core.PredGt, Value: int64(0)}
	row, err := CompileChain([]*core.Operator{f})
	if err != nil {
		t.Fatal(err)
	}
	if k := CompileVector([]*core.Operator{f}, nil, row); k.VecLen() != 0 {
		t.Fatalf("opaque filter vectorized: VecLen=%d", k.VecLen())
	}
}

func TestVectorKernelMatchesRowKernel(t *testing.T) {
	ops := declChain()
	k, ref := compileBoth(t, ops)
	part := make([]any, 500)
	for i := range part {
		part[i] = core.Record{int64(i%21 - 10), fmt.Sprintf("r%d", i%7)}
	}
	vCounts := make([]int64, k.Len())
	rCounts := make([]int64, ref.Len())
	got := k.Run(part, vCounts, nil)
	want := ref.Run(part, rCounts, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vector output differs from row output: %d vs %d quanta", len(got), len(want))
	}
	if !reflect.DeepEqual(vCounts, rCounts) {
		t.Fatalf("counts differ: vector %v, row %v", vCounts, rCounts)
	}
	if batches, rows, fallbacks, _, _ := k.Stats(); batches != 1 || rows != 500 || fallbacks != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/500/0", batches, rows, fallbacks)
	}
}

func TestVectorKernelPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 30; trial++ {
		p := core.NewPlan(fmt.Sprintf("prop-%d", trial))
		var ops []*core.Operator
		steps := 1 + rng.Intn(6)
		width := 3
		for s := 0; s < steps; s++ {
			switch rng.Intn(3) {
			case 0:
				f := p.NewOperator(core.KindFilter, "f")
				f.Params.Where = &core.Predicate{
					Col:   rng.Intn(width),
					Op:    core.PredOp(rng.Intn(5)),
					Value: int64(rng.Intn(10) - 5),
				}
				ops = append(ops, f)
			case 1:
				m := p.NewOperator(core.KindMap, "m")
				e := core.MapExpr{
					Col:     rng.Intn(width),
					Op:      core.NumOp(rng.Intn(3)),
					Operand: []any{int64(rng.Intn(5) + 1), 0.5}[rng.Intn(2)],
				}
				m.UDF.MapExpr = &e
				m.UDF.Map = e.Fn()
				ops = append(ops, m)
			default:
				pr := p.NewOperator(core.KindProject, "pr")
				nw := 1 + rng.Intn(width)
				cols := make([]int, nw)
				for j := range cols {
					cols[j] = rng.Intn(width) // duplicates allowed: aliasing case
				}
				pr.Params.Columns = cols
				ops = append(ops, pr)
				width = nw
			}
		}
		part := make([]any, 50+rng.Intn(200))
		for i := range part {
			part[i] = core.Record{int64(rng.Intn(20) - 10), int64(rng.Intn(20) - 10), float64(rng.Intn(10))}
		}
		k, ref := compileBoth(t, ops)
		vCounts := make([]int64, k.Len())
		rCounts := make([]int64, ref.Len())
		got := k.Run(part, vCounts, nil)
		want := ref.Run(part, rCounts, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (VecLen=%d): outputs differ\n got %v\nwant %v",
				trial, k.VecLen(), got[:min(5, len(got))], want[:min(5, len(want))])
		}
		if !reflect.DeepEqual(vCounts, rCounts) {
			t.Fatalf("trial %d: counts %v vs %v", trial, vCounts, rCounts)
		}
	}
}

func TestVectorKernelDropAllDropNothing(t *testing.T) {
	p := core.NewPlan("drop")
	f := p.NewOperator(core.KindFilter, "f")
	f.Params.Where = &core.Predicate{Col: core.WholeQuantum, Op: core.PredLt, Value: int64(0)}
	m := p.NewOperator(core.KindMap, "m")
	e := core.MapExpr{Col: core.WholeQuantum, Op: core.NumAdd, Operand: int64(1)}
	m.UDF.MapExpr = &e
	m.UDF.Map = e.Fn()
	ops := []*core.Operator{f, m}
	part := []any{int64(1), int64(2), int64(3)}

	k, _ := compileBoth(t, ops)
	counts := make([]int64, 2)
	if out := k.Run(part, counts, nil); len(out) != 0 {
		t.Fatalf("drop-all emitted %v", out)
	}
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatalf("drop-all counts = %v", counts)
	}

	f.Params.Where = &core.Predicate{Col: core.WholeQuantum, Op: core.PredGt, Value: int64(0)}
	k2, _ := compileBoth(t, ops)
	counts = make([]int64, 2)
	out := k2.Run(part, counts, nil)
	want := []any{int64(2), int64(3), int64(4)}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("drop-nothing = %v, want %v", out, want)
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("drop-nothing counts = %v", counts)
	}
}

func TestVectorKernelFallbacks(t *testing.T) {
	ops := declChain()

	// Unbatchable partition (mixed shapes) → fallback, counted.
	k, ref := compileBoth(t, ops)
	mixed := []any{core.Record{int64(1), "a"}, core.KV{Key: "x", Value: int64(1)}}
	// The opaque tail would choke on the KV, so only use the head filter: a
	// fresh 1-op chain keeps the partition shape the only variable.
	p := core.NewPlan("fb")
	f := p.NewOperator(core.KindFilter, "f")
	f.Params.Where = &core.Predicate{Col: 0, Op: core.PredGt, Value: int64(0)}
	k, ref = compileBoth(t, []*core.Operator{f})
	got := k.Run(mixed, nil, nil)
	want := ref.Run(mixed, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed partition: %v vs %v", got, want)
	}
	if _, _, fallbacks, _, _ := k.Stats(); fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", fallbacks)
	}

	// Type mismatch (string column under numeric predicate): the column plan
	// refuses, and the row fallback reproduces the row path's panic exactly.
	strs := []any{core.Record{"a", "b"}}
	k2, ref2 := compileBoth(t, []*core.Operator{f})
	panicOf := func(run func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		run()
		return "<no panic>"
	}
	vp := panicOf(func() { k2.Run(strs, nil, nil) })
	rp := panicOf(func() { ref2.Run(strs, nil, nil) })
	if vp != rp || vp == "<no panic>" {
		t.Fatalf("string partition panics differ: vector %q, row %q", vp, rp)
	}
	if _, _, fb, _, _ := k2.Stats(); fb != 1 {
		t.Fatalf("type-mismatch fallbacks = %d", fb)
	}

	// A sniffer on a vectorized step forces the row path so the sniffer sees
	// every emission.
	part := []any{core.Record{int64(1), "a"}, core.Record{int64(-1), "b"}}
	k4, _ := compileBoth(t, []*core.Operator{f})
	var saw []any
	k4.SetSniff(0, func(q any) { saw = append(saw, q) })
	out := k4.Run(part, nil, nil)
	if len(out) != 1 || len(saw) != 1 {
		t.Fatalf("sniffed run: out=%v saw=%v", out, saw)
	}
	if batches, _, _, _, _ := k4.Stats(); batches != 0 {
		t.Fatalf("sniffed run used the column path (batches=%d)", batches)
	}
}

func TestVectorKernelProjectionAliasingFallsBack(t *testing.T) {
	// project [0,0] duplicates a physical column; a later in-place map would
	// rewrite both output fields where the row path rewrites one.
	p := core.NewPlan("alias")
	pr := p.NewOperator(core.KindProject, "dup")
	pr.Params.Columns = []int{0, 0}
	m := p.NewOperator(core.KindMap, "add")
	e := core.MapExpr{Col: 1, Op: core.NumAdd, Operand: int64(5)}
	m.UDF.MapExpr = &e
	m.UDF.Map = e.Fn()
	ops := []*core.Operator{pr, m}
	part := []any{core.Record{int64(1), "x"}, core.Record{int64(2), "y"}}

	k, ref := compileBoth(t, ops)
	got := k.Run(part, nil, nil)
	want := ref.Run(part, nil, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aliasing: vector %v, row %v", got, want)
	}
	if want[0].(core.Record)[0] != int64(1) || want[0].(core.Record)[1] != int64(6) {
		t.Fatalf("row reference itself wrong: %v", want)
	}
}

func TestVectorKernelTailSharesStats(t *testing.T) {
	ops := declChain()[:2] // where → addexpr, fully declarative
	k, _ := compileBoth(t, ops)
	tail := k.Tail(1)
	if tail.VecLen() != 1 {
		t.Fatalf("tail VecLen = %d", tail.VecLen())
	}
	part := []any{core.Record{int64(3), "a"}}
	counts := make([]int64, 1)
	out := tail.Run(part, counts, nil)
	if len(out) != 1 || out[0].(core.Record)[0] != int64(13) {
		t.Fatalf("tail run = %v", out)
	}
	// The tail's batches accumulate into the parent kernel's stats.
	if batches, rows, _, _, _ := k.Stats(); batches != 1 || rows != 1 {
		t.Fatalf("parent stats = %d/%d, want 1/1", batches, rows)
	}
}

func TestVectorKernelAggSniffAndZeroStepChain(t *testing.T) {
	// A stand-alone declarative reduce-by is a kernel with zero narrow steps;
	// SetSniff(Len()) addresses the aggregation's output, and Tail keeps it.
	p := core.NewPlan("agg-sniff")
	f := p.NewOperator(core.KindFilter, "where")
	f.Params.Where = &PredGtZero
	rb := p.NewOperator(core.KindReduceBy, "agg")
	rb.UDF.ReduceExpr = &core.ReduceExpr{GroupCols: []int{1}, Aggs: []core.AggSpec{{Op: core.AggSum, Col: 0}}}
	rows := []any{core.Record{int64(3), "a"}, core.Record{int64(4), "b"}, core.Record{int64(5), "a"}}
	want := []any{core.Record{"a", int64(8)}, core.Record{"b", int64(4)}}

	for _, ops := range [][]*core.Operator{nil, {f}} {
		row, err := CompileChain(ops)
		if err != nil {
			t.Fatal(err)
		}
		k := CompileVector(ops, rb, row)
		var sniffed []any
		k.SetSniff(k.Len(), func(q any) { sniffed = append(sniffed, q) })
		k = k.Tail(len(ops)) // relstore's view after pushing the filter down
		st := core.NewAggState(k.Agg())
		k.RunAgg(rows, make([]int64, k.Len()), st)
		if got := k.Finalize(st); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sniffed, want) {
			t.Fatalf("%d-step chain: finalized %v, sniffed %v, want %v", len(ops), got, sniffed, want)
		}
	}
}

func TestVectorKernelBufferContract(t *testing.T) {
	p := core.NewPlan("buf")
	f := p.NewOperator(core.KindFilter, "f")
	f.Params.Where = &core.Predicate{Col: core.WholeQuantum, Op: core.PredGe, Value: int64(0)}
	k, _ := compileBoth(t, []*core.Operator{f})
	buf := make([]any, 0, 16)
	out := k.Run([]any{int64(1), int64(2)}, nil, buf)
	if len(out) != 2 || cap(out) != 16 {
		t.Fatalf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
}
