package driverutil

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"rheem/internal/core"
)

// aggChainKernel compiles filter(col 0 > 500) → map(col 0 + 5) →
// reduce-by-expr over group column 2, the shape of the declarative_agg
// benchmark workload, fully vectorized.
func aggChainKernel(t *testing.T) *VectorKernel {
	t.Helper()
	p := core.NewPlan("morsel-alloc")
	f := p.NewOperator(core.KindFilter, "gt")
	f.Params.Where = &core.Predicate{Col: 0, Op: core.PredGt, Value: int64(500)}
	m := p.NewOperator(core.KindMap, "add")
	e := core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(5)}
	m.UDF.MapExpr = &e
	m.UDF.Map = e.Fn()
	rb := p.NewOperator(core.KindReduceBy, "agg")
	rb.UDF.ReduceExpr = &core.ReduceExpr{
		GroupCols: []int{2},
		Aggs: []core.AggSpec{
			{Op: core.AggSum, Col: 0},
			{Op: core.AggCount, Col: core.WholeQuantum},
			{Op: core.AggAvg, Col: 1},
		},
	}
	ops := []*core.Operator{f, m}
	row, err := CompileChain(ops)
	if err != nil {
		t.Fatal(err)
	}
	return CompileVector(ops, rb, row)
}

// aggRecords builds n Records {i % 9973, i / 7 as float64, "g" + i % 7}.
func aggRecords(n int) []any {
	groups := make([]string, 7)
	for g := range groups {
		groups[g] = "g" + strconv.Itoa(g)
	}
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 9973), float64(i) / 7, groups[i%7]}
	}
	return data
}

// morselAllocSlack bounds how many more bytes a RunAgg over a partition ten
// times longer may allocate. Everything the column path allocates is sized
// to a morsel and made at most once per partition (the pooled batch, its
// column buffers and selection vectors, the aggregation's scratch), so the
// two runs differ by pool misses at most; under the race detector, where
// sync.Pool drops a quarter of what is put, one miss costs the whole
// scratch: for this chain an int64, a float64 and a dictionary-code column
// and one selection vector of 4096 rows, 112 KiB. Batches over the whole
// partition differ by about 2.7 MB.
const morselAllocSlack = 256 << 10

// TestRunAggAllocationsFlatInPartitionSize: RunAgg over a 40 k-row and a
// 400 k-row partition allocates the same bytes, within morselAllocSlack.
func TestRunAggAllocationsFlatInPartitionSize(t *testing.T) {
	k := aggChainKernel(t)
	perRun := func(part []any) float64 {
		run := func() {
			st := core.NewAggState(k.Agg())
			k.RunAgg(part, make([]int64, k.Len()), st)
			if st.Groups() != 7 {
				t.Fatalf("%d groups, want 7", st.Groups())
			}
		}
		run() // warms the pools
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perRun(aggRecords(40_000)), perRun(aggRecords(400_000))
	t.Logf("bytes per RunAgg: 40 k rows %.0f, 400 k rows %.0f", small, large)
	if large-small > morselAllocSlack {
		t.Fatalf("a 400 k-row partition allocates %.0f bytes per run, a 40 k-row one %.0f: %.0f more, past the %d-byte slack",
			large, small, large-small, morselAllocSlack)
	}
	if batches, _, fallbacks, aggBatches, _ := k.Stats(); fallbacks != 0 || aggBatches != batches {
		t.Fatalf("%d morsels, %d fallbacks, %d absorbed column-wise: every morsel should absorb as columns", batches, fallbacks, aggBatches)
	}
}

// TestRunAggBytesPerPartition: once the pools are warm, RunAgg into a fresh
// aggregation state — what RunChainParts does for every partition — allocates
// the state's groups and lanes and the counts, not a row→group scratch of its
// own: the 4096-entry scratch (32 KiB) is lent by the pooled morsel scratch.
// The least of several runs is taken: a run that misses the pool makes the
// whole morsel scratch, and under the race detector sync.Pool drops a quarter
// of what is put.
func TestRunAggBytesPerPartition(t *testing.T) {
	k := aggChainKernel(t)
	part := aggRecords(40_000)
	run := func() {
		st := core.NewAggState(k.Agg())
		k.RunAgg(part, make([]int64, k.Len()), st)
		if st.Groups() != 7 {
			t.Fatalf("%d groups, want 7", st.Groups())
		}
	}
	run() // warms the pools
	least := uint64(math.MaxUint64)
	for range 15 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const bound = 8 << 10 // a quarter of the scratch a state would make itself
	t.Logf("bytes per RunAgg into a fresh state: %d (least of 15 runs)", least)
	if least > bound {
		t.Fatalf("RunAgg into a fresh state allocates %d bytes (least of 15 runs), past %d", least, bound)
	}
}
