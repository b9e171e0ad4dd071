package driverutil

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"rheem/internal/core"
)

// keyedReduceBy is how a UDF reduce-by ran before it became its chain's
// terminator, kept as the reference: the chain's output materialized per
// partition, combined within each partition when there are several, then
// exchanged on the key and reduced once more per partition (ApplyBlocking's
// keyed shape, one barrier).
func keyedReduceBy(s Scheduler, op *core.Operator, parts [][]any) [][]any {
	combine := func(part []any) []any { return ReduceByKey(op, part) }
	if len(parts) > 1 {
		parts = eachPart(s, parts, combine)
	}
	return keyed(s, [][][]any{parts}, []func(any) any{op.UDF.Key}, func(part, _ []any) []any {
		return combine(part)
	})
}

// newCounters returns n zeroed counters.
func newCounters(n int) []*int64 {
	out := make([]*int64, n)
	for i := range out {
		out[i] = new(int64)
	}
	return out
}

// rbParts cuts rows into n partitions. Every third partition is empty.
func rbParts(rows []any, n int) [][]any {
	parts := make([][]any, n)
	for i := range parts {
		if i%3 != 2 {
			parts[i] = rows[i*len(rows)/n : (i+1)*len(rows)/n]
		}
	}
	return parts
}

// TestUDFReduceByAbsorbedMatchesKeyedPath holds a UDF reduce-by run as its
// chain's terminator (RunChainParts over a kernel that Reduces) to the path
// it replaced — the narrow chain materialized, then the map-side combine and
// the keyed exchange — on chains of zero to two narrow steps, a declarative
// filter head among them, over 0 to 7 partitions, on a serial and a parallel
// scheduler: the same output partitions element for element, the same
// per-operator counts and the same number of barriers. A sniffer on the
// reduce-by sees each emitted record exactly once.
func TestUDFReduceByAbsorbedMatchesKeyedPath(t *testing.T) {
	p := core.NewPlan("udf-reduce-by")
	flat := p.NewOperator(core.KindFlatMap, "fan")
	flat.UDF.FlatMap = func(q any) []any {
		r := q.(core.Record)
		return []any{r, core.Record{r[0].(int64) * 7 % 37, int64(1)}}
	}
	filter := p.NewOperator(core.KindFilter, "odd")
	filter.UDF.Pred = func(q any) bool { return q.(core.Record)[1].(int64)%3 != 0 }
	double := p.NewOperator(core.KindMap, "double")
	double.UDF.Map = func(q any) any { r := q.(core.Record); return core.Record{r[0], r[1].(int64) * 2} }
	where := p.NewOperator(core.KindFilter, "where")
	where.Params.Where = &core.Predicate{Col: 1, Op: core.PredGt, Value: int64(10)}
	rb := p.NewOperator(core.KindReduceBy, "fold")
	rb.UDF.Key = func(q any) any { return q.(core.Record)[0] }
	// Not commutative: a fold that reduced in another order would differ.
	rb.UDF.Reduce = func(a, b any) any {
		ra, rb := a.(core.Record), b.(core.Record)
		return core.Record{ra[0], ra[1].(int64)*3 + rb[1].(int64)}
	}
	rows := make([]any, 600)
	for i := range rows {
		rows[i] = core.Record{int64(i % 37), int64(i)}
	}
	chains := map[string][]*core.Operator{
		"[]":               nil,
		"[flatmap]":        {flat},
		"[filter map]":     {filter, double},
		"[flatmap filter]": {flat, filter},
		"[where map]":      {where, double},
	}
	for name, ops := range chains {
		for _, n := range []int{0, 1, 2, 3, 7} {
			for _, width := range []int{1, 4} { // Serial and a Parallel of four
				for _, sniffed := range []bool{false, true} {
					tag := fmt.Sprintf("%s/parts=%d/width=%d/sniffed=%v", name, n, width, sniffed)
					parts := rbParts(rows, n)

					narrow, err := (&FusedChain{Ops: ops}).Compile()
					if err != nil {
						t.Fatal(err)
					}
					ref := &pooled{width: width}
					wantCounts := newCounters(len(ops) + 1)
					mid := parts
					if len(ops) > 0 {
						mid = RunChainParts(ref, narrow, parts, wantCounts)
					}
					want := keyedReduceBy(ref, rb, mid)
					for _, part := range want {
						*wantCounts[len(ops)] += int64(len(part))
					}

					kernel, err := (&FusedChain{Ops: ops, Agg: rb}).Compile()
					if err != nil {
						t.Fatal(err)
					}
					var mu sync.Mutex
					var saw []any
					if sniffed {
						kernel.SetSniff(len(ops), func(q any) { mu.Lock(); saw = append(saw, q); mu.Unlock() })
					}
					s := &pooled{width: width}
					gotCounts := newCounters(len(ops) + 1)
					got := RunChainParts(s, kernel, parts, gotCounts)

					if len(got) != len(want) {
						t.Fatalf("%s: %d output partitions, the keyed path gives %d", tag, len(got), len(want))
					}
					for j := range want {
						if len(got[j]) != len(want[j]) {
							t.Fatalf("%s: partition %d holds %d quanta, the keyed path's %d", tag, j, len(got[j]), len(want[j]))
						}
						for i := range want[j] {
							if !reflect.DeepEqual(got[j][i], want[j][i]) {
								t.Fatalf("%s: partition %d quantum %d is %v, the keyed path's %v", tag, j, i, got[j][i], want[j][i])
							}
						}
					}
					for i := range wantCounts {
						if *gotCounts[i] != *wantCounts[i] {
							t.Fatalf("%s: operator %d counted %d, the keyed path %d", tag, i, *gotCounts[i], *wantCounts[i])
						}
					}
					if s.barriers != ref.barriers {
						t.Fatalf("%s: %d barriers, the keyed path paid %d", tag, s.barriers, ref.barriers)
					}
					if sniffed {
						if g, w := sortedStrings(saw), sortedStrings(gather(got)); !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: the sniffer saw %d records, the reduce-by emitted %d", tag, len(g), len(w))
						}
					}
					if name == "[where map]" && n > 1 {
						if batches, _, _, _, _ := kernel.Stats(); batches == 0 {
							t.Fatalf("%s: the declarative head never ran column-wise", tag)
						}
					}
				}
			}
		}
	}
}

// wordChain is the udf_wordcount shape: 20 k lines, a flatmap splitting each
// into nine KV words over a vocabulary of 1000, and a UDF reduce-by on the
// word, compiled as one chain over four partitions. The reduce keeps a
// word's first KV, so the UDFs allocate the words' KV boxes and one slice per
// line and nothing else: what a run allocates beyond those is the engine's.
func wordChain(tb testing.TB) (kernel *VectorKernel, parts [][]any, words int) {
	const lines, perLine, vocabulary = 20000, 9, 1000
	vocab := make([]any, vocabulary)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	one := any(int64(1))
	p := core.NewPlan("wordcount")
	split := p.NewOperator(core.KindFlatMap, "split")
	split.UDF.FlatMap = func(q any) []any {
		line := q.(int64)
		out := make([]any, perLine)
		for j := range out {
			out[j] = core.KV{Key: vocab[(line*perLine+int64(j)*7919)%vocabulary], Value: one}
		}
		return out
	}
	first := p.NewOperator(core.KindReduceBy, "first")
	first.UDF.Key = func(q any) any { return q.(core.KV).Key }
	first.UDF.Reduce = func(a, _ any) any { return a }
	kernel, err := (&FusedChain{Ops: []*core.Operator{split}, Agg: first}).Compile()
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([]any, lines)
	for i := range rows {
		rows[i] = int64(i)
	}
	return kernel, SplitRows(rows, 4), lines * perLine
}

// BenchmarkUDFReduceByChain runs the word-count chain on a 4-worker Parallel.
func BenchmarkUDFReduceByChain(b *testing.B) {
	kernel, parts, _ := wordChain(b)
	s := &pooled{width: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunChainParts(s, kernel, parts, newCounters(2))
	}
}

// TestUDFReduceByChainAllocations guards the fold's memory: a run of the
// word-count chain allocates under twice the words' own KV boxes. Building
// the flatmap's whole output before reducing it, as a materialized chain
// does, costs more than twice those boxes on its own.
func TestUDFReduceByChainAllocations(t *testing.T) {
	kernel, parts, words := wordChain(t)
	s := &pooled{width: 4}
	out := RunChainParts(s, kernel, parts, newCounters(2)) // warm the buffer pool
	groups := 0
	for _, part := range out {
		groups += len(part)
	}
	if groups != 1000 {
		t.Fatalf("%d words folded, want the vocabulary's 1000", groups)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		RunChainParts(s, kernel, parts, newCounters(2))
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	boxes := uint64(words) * uint64(unsafe.Sizeof(core.KV{}))
	t.Logf("a run allocates %d bytes; its words' KV boxes are %d", perRun, boxes)
	if perRun >= 2*boxes {
		t.Fatalf("a run allocates %d bytes, at least twice the %d of its words' KV boxes", perRun, boxes)
	}
}
