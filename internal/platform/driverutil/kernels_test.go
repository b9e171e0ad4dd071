package driverutil

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rheem/internal/core"
)

func kvOp(kind core.Kind) *core.Operator {
	return &core.Operator{Kind: kind, UDF: core.UDFs{
		Key: func(q any) any { return q.(core.KV).Key },
		Reduce: func(a, b any) any {
			ka, kb := a.(core.KV), b.(core.KV)
			return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
		},
	}}
}

func kvs(pairs ...[2]int64) []any {
	out := make([]any, len(pairs))
	for i, p := range pairs {
		out[i] = core.KV{Key: p[0], Value: p[1]}
	}
	return out
}

func TestReduceByKeySums(t *testing.T) {
	out := ReduceByKey(kvOp(core.KindReduceBy), kvs([2]int64{1, 10}, [2]int64{2, 5}, [2]int64{1, 7}))
	got := map[int64]int64{}
	for _, q := range out {
		kv := q.(core.KV)
		got[kv.Key.(int64)] = kv.Value.(int64)
	}
	if got[1] != 17 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestReduceByKeyPropertyTotalPreserved(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var data []any
		var total int64
		for i := 0; i < int(n); i++ {
			v := int64(rng.Intn(100))
			total += v
			data = append(data, core.KV{Key: int64(rng.Intn(5)), Value: v})
		}
		out := ReduceByKey(kvOp(core.KindReduceBy), data)
		var sum int64
		keys := map[int64]bool{}
		for _, q := range out {
			kv := q.(core.KV)
			k := kv.Key.(int64)
			if keys[k] {
				return false // duplicate key in output
			}
			keys[k] = true
			sum += kv.Value.(int64)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupByKeyPartition(t *testing.T) {
	op := kvOp(core.KindGroupBy)
	data := kvs([2]int64{1, 1}, [2]int64{2, 2}, [2]int64{1, 3})
	out := GroupByKey(op, data)
	total := 0
	for _, q := range out {
		g := q.(core.Group)
		total += len(g.Values)
	}
	if total != 3 || len(out) != 2 {
		t.Fatalf("groups = %v", out)
	}
}

// TestHashJoinMatchesNestedLoop: HashJoin yields the multiset of combined
// pairs a nested loop over key equality does, over random sides with
// duplicate keys on both.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	op := &core.Operator{Kind: core.KindJoin, UDF: core.UDFs{
		Key:      func(q any) any { return q.(core.Record)[0] },
		KeyRight: func(q any) any { return q.(core.Record)[0] },
	}}
	f := func(seed int64, nl, nr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []any {
			out := make([]any, n)
			for i := range out {
				out[i] = core.Record{int64(rng.Intn(6)), int64(i)}
			}
			return out
		}
		left, right := mk(int(nl)%25), mk(int(nr)%25)
		var want []any
		for _, l := range left {
			for _, r := range right {
				if l.(core.Record)[0] == r.(core.Record)[0] {
					want = append(want, core.Record{l, r})
				}
			}
		}
		return reflect.DeepEqual(pairCounts(HashJoin(op, left, right)), pairCounts(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// pairCounts is the multiset of join outputs, each counted by its printed
// form.
func pairCounts(out []any) map[string]int {
	counts := make(map[string]int, len(out))
	for _, q := range out {
		counts[fmt.Sprint(q)]++
	}
	return counts
}

func TestDistinctIdempotent(t *testing.T) {
	f := func(vals []int16) bool {
		data := make([]any, len(vals))
		for i, v := range vals {
			data[i] = int64(v % 10)
		}
		once := Distinct(data)
		twice := Distinct(once)
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectSubsetOfBoth(t *testing.T) {
	f := func(a, b []uint8) bool {
		la := make([]any, len(a))
		for i, v := range a {
			la[i] = int64(v % 16)
		}
		lb := make([]any, len(b))
		for i, v := range b {
			lb[i] = int64(v % 16)
		}
		inter := Intersect(la, lb)
		inA := map[any]bool{}
		for _, q := range la {
			inA[q] = true
		}
		inB := map[any]bool{}
		for _, q := range lb {
			inB[q] = true
		}
		seen := map[any]bool{}
		for _, q := range inter {
			if !inA[q] || !inB[q] || seen[q] {
				return false
			}
			seen[q] = true
		}
		// Completeness: everything in both appears.
		for q := range inA {
			if inB[q] && !seen[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortStableTotal(t *testing.T) {
	op := &core.Operator{Kind: core.KindSort}
	data := []any{int64(3), int64(1), int64(2), int64(1)}
	out := Sort(op, data)
	want := []any{int64(1), int64(1), int64(2), int64(3)}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("sorted = %v", out)
	}
	// Input untouched.
	if !reflect.DeepEqual(data, []any{int64(3), int64(1), int64(2), int64(1)}) {
		t.Fatal("Sort mutated its input")
	}
}

func TestSampleMethods(t *testing.T) {
	data := make([]any, 200)
	for i := range data {
		data[i] = int64(i)
	}
	for _, method := range []string{"bernoulli", "reservoir", "shuffle-first"} {
		op := &core.Operator{Kind: core.KindSample, Params: core.Params{
			SampleMethod: method, SampleSize: 20, Seed: 3,
		}}
		out, err := Sample(op, data, core.Round{})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(out) != 20 {
			t.Fatalf("%s: size = %d", method, len(out))
		}
	}
	// Unknown method errors.
	bad := &core.Operator{Kind: core.KindSample, Params: core.Params{SampleMethod: "nope"}}
	if _, err := Sample(bad, data, core.Round{}); err == nil {
		t.Fatal("unknown method should error")
	}
	// Successive rounds of a loop-resident sampler differ.
	op := &core.Operator{Kind: core.KindSample, Params: core.Params{SampleMethod: "shuffle-first", SampleSize: 20, Seed: 3}}
	r0, _ := Sample(op, data, core.Round{})
	r1, _ := Sample(op, data, core.Round{N: 1})
	if reflect.DeepEqual(r0, r1) {
		t.Fatal("rounds returned identical samples")
	}
}

func TestHashKeyStability(t *testing.T) {
	if HashKey("abc") != HashKey("abc") {
		t.Fatal("string hash unstable")
	}
	if HashKey(int64(5)) != HashKey(5) {
		t.Fatal("int and int64 hash differently")
	}
	if HashKey("a") == HashKey("b") {
		t.Fatal("suspicious collision")
	}
	// Composite keys reach HashKey as core.GroupKey strings; anything else
	// hashes by its formatted form.
	if HashKey(core.Record{int64(1), "a"}) != HashKey(core.GroupKey(core.Record{int64(1), "a"})) {
		t.Fatal("record key and its normalized form hash differently")
	}
}

// BenchmarkHashKey measures the exchange hash.
func BenchmarkHashKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashKey(int64(i))
		HashKey("some-moderately-long-word")
	}
}

func TestPredOfFallsBackToWhere(t *testing.T) {
	op := &core.Operator{Kind: core.KindFilter, Params: core.Params{
		Where: &core.Predicate{Col: 0, Op: core.PredGt, Value: 5.0},
	}}
	pred := PredOf(op)
	if !pred(core.Record{6.0}) || pred(core.Record{5.0}) {
		t.Fatal("Where predicate misevaluated")
	}
}

func TestCoGroupCoversBothSides(t *testing.T) {
	op := kvOp(core.KindCoGroup)
	left := kvs([2]int64{1, 1}, [2]int64{1, 2})
	right := kvs([2]int64{1, 3}, [2]int64{9, 4})
	out := CoGroup(op, left, right)
	sizes := map[int64][2]int{}
	for _, q := range out {
		rec := q.(core.Record)
		sizes[rec[0].(int64)] = [2]int{len(rec[1].([]any)), len(rec[2].([]any))}
	}
	if sizes[1] != [2]int{2, 1} || sizes[9] != [2]int{0, 1} {
		t.Fatalf("cogroup sizes = %v", sizes)
	}
}

// panicEngine triggers a UDF panic inside Apply.
type panicEngine struct{}

func (panicEngine) FromChannel(ch *core.Channel) (any, error) { return nil, nil }
func (panicEngine) Apply(op *core.Operator, in []any, round core.Round, counter *int64, sniff func(any)) (any, error) {
	panic(fmt.Sprintf("boom in %s", op))
}
func (panicEngine) ToChannel(op *core.Operator, d any) (*core.Channel, error) { return nil, nil }

// TestRunStageChecksUDFsFirst: an operator lacking a UDF its kind requires
// fails the stage with the operator table's error before the engine sees any
// operator, whichever operator of the stage it is.
func TestRunStageChecksUDFsFirst(t *testing.T) {
	src := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{1}}}
	for _, bad := range []*core.Operator{
		{Kind: core.KindMapPart, Label: "parts"},
		{Kind: core.KindGroupBy, Label: "groups"},
		{Kind: core.KindReduceBy, Label: "sums", UDF: core.UDFs{Key: func(q any) any { return q }}},
	} {
		stage := &core.Stage{ID: 1, Platform: "test", Ops: []*core.Operator{src, bad}, TerminalOuts: []*core.Operator{bad}}
		// panicEngine panics on the first Apply: a UDF panic error would mean
		// the engine ran before the check.
		_, _, err := RunStage(panicEngine{}, stage, core.NewInputs())
		if err == nil || !strings.Contains(err.Error(), bad.String()+" lacks a ") || strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: stage error = %v, want the table's missing-UDF error", bad, err)
		}
	}
}

func TestRunStageRecoversUDFPanic(t *testing.T) {
	op := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{1}}}
	stage := &core.Stage{ID: 1, Platform: "test", Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op}}
	_, _, err := RunStage(panicEngine{}, stage, core.NewInputs())
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
}
