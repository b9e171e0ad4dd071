package driverutil

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"rheem/internal/core"
)

// pooled is a parallel Scheduler of the given width that counts its barriers.
type pooled struct {
	width    int
	barriers int
}

func (p *pooled) Each(n int, fn func(i int) error) error { return Parallel(n, p.width, fn) }
func (p *pooled) Barrier()                               { p.barriers++ }

func benchKVs(n int, mod int64) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = core.KV{Key: int64(i) % mod, Value: int64(i)}
	}
	return out
}

// rowsOf splits data into n row partitions.
func rowsOf(data []any, n int) [][]any {
	return RowParts(SplitSegments([]core.Segment{{Rows: data}}, n))
}

func kvKey(q any) any { return q.(core.KV).Key }

func sortedStrings(data []any) []string {
	out := make([]string, len(data))
	for i, q := range data {
		out[i] = fmt.Sprint(q)
	}
	sort.Strings(out)
	return out
}

func TestExchangeHashRouteKeepsKeysTogether(t *testing.T) {
	for _, s := range []Scheduler{Serial{}, &pooled{width: 4}} {
		parts := Exchange(s, rowsOf(benchKVs(1000, 17), 8), 4, HashRoute(kvKey, 4))
		if len(parts) != 4 {
			t.Fatalf("%d output partitions, want 4", len(parts))
		}
		// Every key must land in exactly one partition, and no quantum is lost.
		where := map[int64]int{}
		total := 0
		for pi, part := range parts {
			total += len(part)
			for _, q := range part {
				k := q.(core.KV).Key.(int64)
				if prev, ok := where[k]; ok && prev != pi {
					t.Fatalf("key %d split across partitions %d and %d", k, prev, pi)
				}
				where[k] = pi
			}
		}
		if total != 1000 || len(where) != 17 {
			t.Fatalf("exchange kept %d quanta of 1000 and %d keys of 17", total, len(where))
		}
	}
	// One partition to one partition is no move.
	one := [][]any{benchKVs(10, 3)}
	if got := Exchange(Serial{}, one, 1, HashRoute(kvKey, 1)); &got[0][0] != &one[0][0] {
		t.Fatal("a one-to-one exchange moved the partition")
	}
}

func TestExchangeRangeRouteOrdersPartitions(t *testing.T) {
	data := make([]any, 500)
	for i := range data {
		data[i] = int64((i * 7919) % 500)
	}
	parts := rowsOf(data, 4)
	less := func(a, b any) bool { return a.(int64) < b.(int64) }
	ranged := Exchange(&pooled{width: 4}, parts, 4, RangeRoute(parts, 4, less))
	// Partition boundaries must be ordered: max(part i) <= min(part i+1).
	total := 0
	var prevMax int64 = -1 << 62
	for _, part := range ranged {
		total += len(part)
		if len(part) == 0 {
			continue
		}
		mn, mx := part[0].(int64), part[0].(int64)
		for _, q := range part {
			mn, mx = min(mn, q.(int64)), max(mx, q.(int64))
		}
		if mn < prevMax {
			t.Fatalf("partition ranges overlap: min %d < previous max %d", mn, prevMax)
		}
		prevMax = mx
	}
	if total != 500 {
		t.Fatalf("range exchange lost quanta: %d", total)
	}
}

func TestParallelExecutesAll(t *testing.T) {
	var n int64
	count := func(int) error { atomic.AddInt64(&n, 1); return nil }
	if err := Parallel(100, 7, count); err != nil || n != 100 {
		t.Fatalf("ran %d of 100 work items (err %v)", n, err)
	}
	Parallel(0, 4, func(int) error { t.Fatal("ran on empty"); return nil })
	Parallel(3, 0, count) // width clamps to 1
	if n != 103 {
		t.Fatalf("n = %d", n)
	}
	// The first error wins and the other items still run.
	n = 0
	failed := errors.New("item 5 failed")
	err := Parallel(20, 4, func(i int) error {
		atomic.AddInt64(&n, 1)
		if i == 5 {
			return failed
		}
		return nil
	})
	if err != failed || n != 20 {
		t.Fatalf("err = %v after %d of 20 items", err, n)
	}
	// A panicking work item is re-raised on the caller, after the rest ran.
	n = 0
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the work item's panic", r)
			}
		}()
		Parallel(20, 4, func(i int) error {
			if i == 3 {
				panic("boom")
			}
			atomic.AddInt64(&n, 1)
			return nil
		})
		t.Fatal("the panic was swallowed")
	}()
	if n != 19 {
		t.Fatalf("%d of the 19 other items ran", n)
	}
}

// TestApplyBlockingMatchesSliceKernels holds the table to its own kernels:
// every blocking kind over partitioned inputs on a parallel scheduler gives
// the multiset the slice kernel gives over the whole input, in the
// documented number of partitions and for the documented number of barriers.
func TestApplyBlockingMatchesSliceKernels(t *testing.T) {
	left, right := benchKVs(600, 23), benchKVs(300, 31)
	sum := func(a, b any) any {
		return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
	}
	nums := func(q any) (float64, float64) {
		return float64(q.(core.KV).Key.(int64)), float64(q.(core.KV).Value.(int64))
	}
	dup := append(append([]any{}, left...), left[:100]...)
	cases := []struct {
		op              core.Operator
		in              [][]any
		want            func(op *core.Operator) []any
		parts, barriers int
	}{
		{core.Operator{Kind: core.KindDistinct}, [][]any{dup},
			func(*core.Operator) []any { return Distinct(dup) }, 5, 1},
		{core.Operator{Kind: core.KindIntersect}, [][]any{left, right},
			func(*core.Operator) []any { return Intersect(left, right) }, 5, 1},
		{core.Operator{Kind: core.KindGroupBy, UDF: core.UDFs{Key: kvKey}}, [][]any{left},
			func(op *core.Operator) []any { return GroupByKey(op, left) }, 5, 1},
		{core.Operator{Kind: core.KindJoin, UDF: core.UDFs{Key: kvKey}}, [][]any{left, right},
			func(op *core.Operator) []any { return HashJoin(op, left, right) }, 5, 1},
		{core.Operator{Kind: core.KindCoGroup, UDF: core.UDFs{Key: kvKey}}, [][]any{left, right},
			func(op *core.Operator) []any { return CoGroup(op, left, right) }, 5, 1},
		{core.Operator{Kind: core.KindSort, UDF: core.UDFs{Less: func(a, b any) bool {
			return a.(core.KV).Value.(int64) > b.(core.KV).Value.(int64)
		}}}, [][]any{left},
			func(op *core.Operator) []any { return Sort(op, left) }, 5, 1},
		{core.Operator{Kind: core.KindCount}, [][]any{left},
			func(*core.Operator) []any { return []any{int64(len(left))} }, 1, 0},
		{core.Operator{Kind: core.KindReduce, UDF: core.UDFs{Reduce: sum}}, [][]any{left},
			func(op *core.Operator) []any { return Reduce(op, left) }, 1, 0},
		{core.Operator{Kind: core.KindIEJoin, UDF: core.UDFs{LeftNums: nums, RightNums: nums},
			Params: core.Params{IEOp1: core.Greater, IEOp2: core.Less}}, [][]any{left, right},
			func(op *core.Operator) []any { return IEJoinSlices(op, left, right) }, 5, 1},
	}
	for _, c := range cases {
		op := &c.op
		in := make([][][]any, len(c.in))
		for i, data := range c.in {
			in[i] = rowsOf(data, 5-2*i) // the right side has fewer partitions
		}
		s := &pooled{width: 3}
		out, ok := ApplyBlocking(s, op, in)
		if !ok {
			t.Fatalf("%s is not in the blocking table", op.Kind)
		}
		want := c.want(op)
		got := gather(out)
		if op.Kind == core.KindSort {
			// In-order concatenation of the range partitions is the total order.
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Sort: quantum %d is %v, want %v", i, got[i], want[i])
				}
			}
		} else if g, w := sortedStrings(got), sortedStrings(want); strings.Join(g, "|") != strings.Join(w, "|") {
			t.Fatalf("%s: %d quanta differ from the slice kernel's %d", op.Kind, len(g), len(w))
		}
		if len(out) != c.parts || s.barriers != c.barriers {
			t.Fatalf("%s: %d partitions after %d barriers, want %d after %d", op.Kind, len(out), s.barriers, c.parts, c.barriers)
		}
		// One partition per input on the serial scheduler: one partition out.
		for i, data := range c.in {
			in[i] = [][]any{data}
		}
		if out, _ := ApplyBlocking(Serial{}, op, in); len(out) != 1 || len(out[0]) != len(want) {
			t.Fatalf("%s on one partition: %d partitions", op.Kind, len(out))
		}
	}
	// Union is not blocking, and a reduce-by is its chain's terminator
	// (RunChainParts), never an operator of the table.
	for _, kind := range []core.Kind{core.KindUnion, core.KindReduceBy} {
		if _, ok := ApplyBlocking(Serial{}, &core.Operator{Kind: kind, UDF: core.UDFs{Key: kvKey, Reduce: sum}}, [][][]any{{left}}); ok {
			t.Fatalf("%s is not in the blocking table", kind)
		}
	}
}

// BenchmarkShuffle measures a full hash exchange (map-side bucketing +
// gather) over 100k quanta.
func BenchmarkShuffle(b *testing.B) {
	parts := rowsOf(benchKVs(100000, 997), 8)
	s := &pooled{width: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exchange(s, parts, 8, HashRoute(kvKey, 8))
	}
}

// BenchmarkRangeShuffle measures the sampled range partitioning behind the
// parallel sort.
func BenchmarkRangeShuffle(b *testing.B) {
	data := make([]any, 100000)
	for i := range data {
		data[i] = int64((i * 7919) % 100000)
	}
	parts := rowsOf(data, 8)
	s := &pooled{width: 4}
	less := func(a, c any) bool { return a.(int64) < c.(int64) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exchange(s, parts, 8, RangeRoute(parts, 8, less))
	}
}
