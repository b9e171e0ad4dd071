package driverutil

import (
	"errors"
	"fmt"
	"math/rand"
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
		parts := Exchange(s, SplitRows(benchKVs(1000, 17), 8), 4, HashRoute(kvKey, 4))
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

// exchangeByAppend is the reference exchange: every input partition appends
// its quanta to p buckets, and output partition j concatenates bucket j of
// every input partition in input order.
func exchangeByAppend(parts [][]any, p int, route func(q any) int) [][]any {
	out := make([][]any, p)
	for _, part := range parts {
		for _, q := range part {
			j := route(q)
			out[j] = append(out[j], q)
		}
	}
	return out
}

// TestExchangeMatchesBucketAppend: Exchange places every quantum where the
// naive bucket-append exchange does, in the same order, over random layouts —
// empty input partitions, no input at all, one output from many inputs and
// more outputs than inputs — on a serial and a parallel scheduler.
func TestExchangeMatchesBucketAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layouts := [][]int{{}, {0}, {0, 0, 0}, {5, 0, 3, 0}, {1}, {40, 1, 0, 17, 9, 0, 2}}
	for trial := 0; trial < 60; trial++ {
		sizes := make([]int, rng.Intn(9))
		for i := range sizes {
			if rng.Intn(3) > 0 {
				sizes[i] = rng.Intn(200)
			}
		}
		layouts = append(layouts, sizes)
	}
	next := int64(0)
	for li, sizes := range layouts {
		parts := make([][]any, len(sizes))
		for i, n := range sizes {
			for k := 0; k < n; k++ {
				parts[i] = append(parts[i], core.KV{Key: rng.Int63n(23), Value: next})
				next++
			}
		}
		for _, p := range []int{1, 2, 3, len(sizes) + 5, 64} {
			route := HashRoute(kvKey, p)
			want := exchangeByAppend(parts, p, route)
			for _, s := range []Scheduler{Serial{}, &pooled{width: 3}} {
				got := Exchange(s, parts, p, route)
				if len(got) != p {
					t.Fatalf("layout %d (%v), p=%d: %d output partitions", li, sizes, p, len(got))
				}
				for j := range want {
					if len(got[j]) != len(want[j]) {
						t.Fatalf("layout %d (%v), p=%d: partition %d holds %d quanta, want %d", li, sizes, p, j, len(got[j]), len(want[j]))
					}
					for k := range want[j] {
						if got[j][k] != want[j][k] {
							t.Fatalf("layout %d (%v), p=%d: partition %d position %d is %v, want %v", li, sizes, p, j, k, got[j][k], want[j][k])
						}
					}
				}
			}
		}
	}
}

func TestExchangeRangeRouteOrdersPartitions(t *testing.T) {
	data := make([]any, 500)
	for i := range data {
		data[i] = int64((i * 7919) % 500)
	}
	parts := SplitRows(data, 4)
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
// every kind over partitioned inputs on a parallel scheduler gives the
// multiset the slice kernel gives over the whole input (sort and sample: the
// same sequence), in the documented number of partitions and for the
// documented number of barriers. A map-partitions UDF that writes to its
// partition leaves the input as it was.
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
		{core.Operator{Kind: core.KindMapPart, UDF: core.UDFs{MapPart: doubleValues}}, [][]any{left},
			func(*core.Operator) []any { return doubleValues(append([]any(nil), left...)) }, 5, 0},
		{core.Operator{Kind: core.KindZipWithID}, [][]any{left},
			func(*core.Operator) []any {
				out := make([]any, len(left))
				for i, q := range left {
					out[i] = core.KV{Key: int64(i), Value: q}
				}
				return out
			}, 5, 0},
		{core.Operator{Kind: core.KindSample, Params: core.Params{SampleMethod: "reservoir", SampleSize: 50, Seed: 3}}, [][]any{left},
			func(op *core.Operator) []any { drawn, _ := Sample(op, left, core.Round{}); return drawn }, 5, 0},
	}
	for _, c := range cases {
		op := &c.op
		in := make([][][]any, len(c.in))
		for i, data := range c.in {
			in[i] = SplitRows(data, 5-2*i) // the right side has fewer partitions
		}
		s := &pooled{width: 3}
		out, err := ApplyBlocking(s, op, core.Round{}, in)
		if err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		want := c.want(op)
		got := gather(out)
		if op.Kind == core.KindSort || op.Kind == core.KindSample {
			// In-order concatenation of the range partitions is the total
			// order; of the sample's cuts, the draw.
			if len(got) != len(want) {
				t.Fatalf("%s: %d quanta, want %d", op.Kind, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: quantum %d is %v, want %v", op.Kind, i, got[i], want[i])
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
		if out, _ := ApplyBlocking(Serial{}, op, core.Round{}, in); len(out) != 1 || len(out[0]) != len(want) {
			t.Fatalf("%s on one partition: %d partitions", op.Kind, len(out))
		}
	}
	for i, q := range left {
		if q != (core.KV{Key: int64(i) % 23, Value: int64(i)}) {
			t.Fatalf("the map-partitions UDF wrote to the input at %d: %v", i, q)
		}
	}
	// Union is not blocking, and a reduce-by is its chain's terminator
	// (RunChainParts), never an operator of the table.
	for _, kind := range []core.Kind{core.KindUnion, core.KindReduceBy} {
		_, err := ApplyBlocking(Serial{}, &core.Operator{Kind: kind, UDF: core.UDFs{Key: kvKey, Reduce: sum}}, core.Round{}, [][][]any{{left}})
		if err == nil || !strings.Contains(err.Error(), "unsupported operator kind "+string(kind)) {
			t.Fatalf("%s: error %v, want it reported as outside the table", kind, err)
		}
	}
}

// doubleValues doubles every KV's value in place.
func doubleValues(part []any) []any {
	for i, q := range part {
		kv := q.(core.KV)
		part[i] = core.KV{Key: kv.Key, Value: kv.Value.(int64) * 2}
	}
	return part
}

// BenchmarkShuffle measures a full hash exchange (map-side bucketing +
// gather) over 100k quanta.
func BenchmarkShuffle(b *testing.B) {
	parts := SplitRows(benchKVs(100000, 997), 8)
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
	parts := SplitRows(data, 8)
	s := &pooled{width: 4}
	less := func(a, c any) bool { return a.(int64) < c.(int64) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exchange(s, parts, 8, RangeRoute(parts, 8, less))
	}
}
