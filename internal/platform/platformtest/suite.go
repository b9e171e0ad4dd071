package platformtest

import (
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// Run exercises the full operator semantics battery against the driver.
// Each engine must produce the same logical results; only execution
// strategy and output order may differ (order-insensitive comparisons are
// used where engines legitimately reorder). A kind's cases run iff the driver
// registers a mapping for it: what a platform offers the optimizer is what it
// is held to.
func Run(t *testing.T, d core.Driver) {
	t.Helper()
	mappings := core.NewMappingRegistry()
	d.RegisterMappings(mappings)
	run := func(k core.Kind, name string, fn func(t *testing.T)) {
		if len(mappings.Alternatives(&core.Operator{Kind: k})) == 0 {
			return
		}
		t.Run(name, fn)
	}

	run(core.KindCollectionSource, "CollectionSource", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{int64(1), int64(2)}}}
		got := SortedInts(t, RunOp(t, d, op))
		if !reflect.DeepEqual(got, []int64{1, 2}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindMap, "Map", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q.(int64) * 10 }}}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(1), int64(2), int64(3))))
		if !reflect.DeepEqual(got, []int64{10, 20, 30}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindFilter, "Filter", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%2 == 0 }}}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(1), int64(2), int64(3), int64(4))))
		if !reflect.DeepEqual(got, []int64{2, 4}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindFlatMap, "FlatMap", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(q any) []any {
			n := q.(int64)
			return []any{n, n}
		}}}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(1), int64(2))))
		if !reflect.DeepEqual(got, []int64{1, 1, 2, 2}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindMapPart, "MapPartitions", func(t *testing.T) {
		// Emits one count per partition; total must equal the input size.
		op := &core.Operator{Kind: core.KindMapPart, UDF: core.UDFs{MapPart: func(part []any) []any {
			return []any{int64(len(part))}
		}}}
		got := RunOp(t, d, op, CollectionChannel(int64(1), int64(2), int64(3), int64(4), int64(5)))
		var total int64
		for _, q := range got {
			total += q.(int64)
		}
		if total != 5 {
			t.Fatalf("partition counts sum to %d, want 5 (%v)", total, got)
		}
	})

	run(core.KindSample, "SampleExactSize", func(t *testing.T) {
		data := make([]any, 100)
		for i := range data {
			data[i] = int64(i)
		}
		op := &core.Operator{Kind: core.KindSample, Params: core.Params{SampleSize: 10, SampleMethod: "reservoir", Seed: 3}}
		got := RunOp(t, d, op, CollectionChannel(data...))
		if len(got) != 10 {
			t.Fatalf("sample size = %d", len(got))
		}
		seen := map[int64]bool{}
		for _, q := range got {
			v := q.(int64)
			if v < 0 || v > 99 || seen[v] {
				t.Fatalf("invalid or duplicate sample %d", v)
			}
			seen[v] = true
		}
		// Every method draws once over the whole input, however the engine
		// partitions it: the draw is driverutil.Sample's.
		for _, params := range []core.Params{
			op.Params,
			{SampleSize: 10, SampleMethod: "shuffle-first", Seed: 3},
			{SampleFraction: 0.2, SampleMethod: "bernoulli", Seed: 3},
		} {
			op := &core.Operator{Kind: core.KindSample, Params: params}
			want, err := driverutil.Sample(op, data, core.Round{})
			if err != nil {
				t.Fatal(err)
			}
			if err := SameMultiset(RunOp(t, d, op, CollectionChannel(data...)), want); err != nil {
				t.Fatalf("%s sample: %v", params.SampleMethod, err)
			}
		}
	})

	run(core.KindDistinct, "Distinct", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindDistinct}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(3), int64(1), int64(3), int64(2), int64(1))))
		if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindSort, "Sort", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindSort}
		got := RunOp(t, d, op, CollectionChannel(int64(3), int64(1), int64(2)))
		ints := make([]int64, len(got))
		for i, q := range got {
			ints[i] = q.(int64)
		}
		if !reflect.DeepEqual(ints, []int64{1, 2, 3}) {
			t.Fatalf("sorted = %v", ints)
		}
	})

	run(core.KindCount, "Count", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCount}
		got := RunOp(t, d, op, CollectionChannel(int64(5), int64(6), int64(7)))
		if len(got) != 1 || got[0].(int64) != 3 {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindReduce, "Reduce", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindReduce, UDF: core.UDFs{Reduce: func(a, b any) any { return a.(int64) + b.(int64) }}}
		got := RunOp(t, d, op, CollectionChannel(int64(1), int64(2), int64(3), int64(4)))
		if len(got) != 1 || got[0].(int64) != 10 {
			t.Fatalf("got %v", got)
		}
		// Empty input: empty output, no panic.
		empty, _, err := RunOpErr(d, &core.Operator{Kind: core.KindReduce, UDF: op.UDF}, CollectionChannel())
		if err != nil || len(empty) != 0 {
			t.Fatalf("empty reduce: %v, %v", empty, err)
		}
	})

	run(core.KindReduceBy, "ReduceBy", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindReduceBy, UDF: core.UDFs{
			Key: func(q any) any { return q.(core.KV).Key },
			Reduce: func(a, b any) any {
				return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
			},
		}}
		got := RunOp(t, d, op, CollectionChannel(
			core.KV{Key: "a", Value: int64(1)},
			core.KV{Key: "b", Value: int64(5)},
			core.KV{Key: "a", Value: int64(2)},
		))
		sums := map[string]int64{}
		for _, q := range got {
			kv := q.(core.KV)
			sums[kv.Key.(string)] = kv.Value.(int64)
		}
		if len(sums) != 2 || sums["a"] != 3 || sums["b"] != 5 {
			t.Fatalf("got %v", sums)
		}
	})

	run(core.KindGroupBy, "GroupBy", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindGroupBy, UDF: core.UDFs{Key: func(q any) any { return q.(int64) % 2 }}}
		got := RunOp(t, d, op, CollectionChannel(int64(1), int64(2), int64(3), int64(4)))
		if len(got) != 2 {
			t.Fatalf("groups = %v", got)
		}
		sizes := map[int64]int{}
		for _, q := range got {
			g := q.(core.Group)
			sizes[g.Key.(int64)] = len(g.Values)
		}
		if sizes[0] != 2 || sizes[1] != 2 {
			t.Fatalf("group sizes = %v", sizes)
		}
	})

	run(core.KindZipWithID, "ZipWithID", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindZipWithID}
		data := []any{"x", "y", "z", "u", "v", "w", "a", "b", "c", "d"}
		got := RunOp(t, d, op, CollectionChannel(data...))
		ids := map[int64]bool{}
		for _, q := range got {
			kv := q.(core.KV)
			id := kv.Key.(int64)
			if ids[id] {
				t.Fatalf("duplicate id %d", id)
			}
			ids[id] = true
			if id < 0 || id >= int64(len(data)) || kv.Value != data[id] {
				t.Fatalf("id %d names %v, not the quantum at input position %d", id, kv.Value, id)
			}
		}
		for i := int64(0); i < int64(len(data)); i++ {
			if !ids[i] {
				t.Fatalf("ids not dense: %v", ids)
			}
		}
	})

	run(core.KindProject, "Project", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindProject, Params: core.Params{Columns: []int{2, 0}}}
		got := RunOp(t, d, op, CollectionChannel(core.Record{int64(1), "a", int64(9)}))
		if len(got) != 1 || !reflect.DeepEqual(got[0], core.Record{int64(9), int64(1)}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindJoin, "Join", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindJoin, UDF: core.UDFs{
			Key:      func(q any) any { return q.(core.Record)[0] },
			KeyRight: func(q any) any { return q.(core.Record)[0] },
		}}
		left := CollectionChannel(core.Record{int64(1), "l1"}, core.Record{int64(2), "l2"}, core.Record{int64(2), "l2b"})
		right := CollectionChannel(core.Record{int64(2), "r2"}, core.Record{int64(3), "r3"})
		got := RunOp(t, d, op, left, right)
		if len(got) != 2 {
			t.Fatalf("join produced %d rows: %v", len(got), got)
		}
		for _, q := range got {
			pair := q.(core.Record)
			if pair[0].(core.Record)[0] != pair[1].(core.Record)[0] {
				t.Fatalf("mismatched keys in %v", pair)
			}
		}
	})

	run(core.KindIEJoin, "IEJoin", func(t *testing.T) {
		// salary/tax denial constraint: l.salary > r.salary AND l.tax < r.tax.
		rows := []any{
			core.Record{3000.0, 300.0},
			core.Record{4000.0, 250.0},
			core.Record{5000.0, 500.0},
		}
		nums := func(q any) (float64, float64) {
			r := q.(core.Record)
			return r.Float(0), r.Float(1)
		}
		op := &core.Operator{Kind: core.KindIEJoin,
			UDF:    core.UDFs{LeftNums: nums, RightNums: nums},
			Params: core.Params{IEOp1: core.Greater, IEOp2: core.Less},
		}
		got := RunOp(t, d, op, CollectionChannel(rows...), CollectionChannel(rows...))
		// Violations: (4000,250) vs (3000,300), (4000,250) vs (5000,500) has
		// salary 4000 < 5000 -> no; (5000,500) vs others: tax higher -> no.
		// Expected exactly 1 pair.
		if len(got) != 1 {
			t.Fatalf("iejoin pairs = %d: %v", len(got), got)
		}
	})

	run(core.KindCartesian, "Cartesian", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCartesian}
		got := RunOp(t, d, op, CollectionChannel(int64(1), int64(2)), CollectionChannel("a", "b", "c"))
		if len(got) != 6 {
			t.Fatalf("cartesian size = %d", len(got))
		}
	})

	run(core.KindUnion, "Union", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindUnion}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(1)), CollectionChannel(int64(2), int64(3))))
		if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindIntersect, "Intersect", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindIntersect}
		got := SortedInts(t, RunOp(t, d, op,
			CollectionChannel(int64(1), int64(2), int64(2), int64(3)),
			CollectionChannel(int64(2), int64(3), int64(4))))
		if !reflect.DeepEqual(got, []int64{2, 3}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindCoGroup, "CoGroup", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCoGroup, UDF: core.UDFs{Key: func(q any) any { return q.(core.KV).Key }}}
		got := RunOp(t, d, op,
			CollectionChannel(core.KV{Key: "a", Value: int64(1)}, core.KV{Key: "a", Value: int64(2)}),
			CollectionChannel(core.KV{Key: "a", Value: int64(3)}, core.KV{Key: "b", Value: int64(4)}))
		if len(got) != 2 {
			t.Fatalf("cogroups = %v", got)
		}
		for _, q := range got {
			rec := q.(core.Record)
			key := rec[0].(string)
			l := rec[1].([]any)
			r := rec[2].([]any)
			switch key {
			case "a":
				if len(l) != 2 || len(r) != 1 {
					t.Fatalf("cogroup a: %d, %d", len(l), len(r))
				}
			case "b":
				if len(l) != 0 || len(r) != 1 {
					t.Fatalf("cogroup b: %d, %d", len(l), len(r))
				}
			default:
				t.Fatalf("unexpected key %q", key)
			}
		}
	})

	run(core.KindCache, "Cache", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCache}
		got := SortedInts(t, RunOp(t, d, op, CollectionChannel(int64(7), int64(8))))
		if !reflect.DeepEqual(got, []int64{7, 8}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindMap, "BroadcastReachesUDF", func(t *testing.T) {
		var factor int64
		op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{
			Open: func(bc core.BroadcastCtx) { factor = bc.Get("factors")[0].(int64) },
			Map:  func(q any) any { return q.(int64) * factor },
		}}
		// Simulate an executor-provided broadcast channel.
		producer := &core.Operator{Kind: core.KindCollectionSource, Label: "factors"}
		p := core.NewPlan("bc")
		p.Add(producer)
		p.Add(op)
		p.Broadcast(producer, op)
		stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op}}
		in := core.NewInputs()
		in.SetMain(op, 0, CollectionChannel(int64(2), int64(3)))
		in.SetBroadcast(op, producer, CollectionChannel(int64(100)))
		outs, _, err := d.Execute(stage, in)
		if err != nil {
			t.Fatal(err)
		}
		data, err := driverutil.ChannelQuanta(outs[op])
		if err != nil {
			t.Fatal(err)
		}
		got := SortedInts(t, data)
		if !reflect.DeepEqual(got, []int64{200, 300}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindMap, "ChainedPipeline", func(t *testing.T) {
		src := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{int64(1), int64(2), int64(3), int64(4)}}}
		double := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q.(int64) * 2 }}}
		even := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool { return q.(int64) > 4 }}}
		got := SortedInts(t, RunChain(t, d, []*core.Operator{src, double, even}))
		if !reflect.DeepEqual(got, []int64{6, 8}) {
			t.Fatalf("got %v", got)
		}
	})

	run(core.KindCollectionSource, "LoopVarSubstitution", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindCollectionSource} // nil collection: loop placeholder
		stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op}}
		in := core.NewInputs()
		in.SetMain(op, 0, CollectionChannel(int64(42))) // the way the executor binds the loop value
		outs, _, err := d.Execute(stage, in)
		if err != nil {
			t.Fatal(err)
		}
		data, err := driverutil.ChannelQuanta(outs[op])
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 1 || data[0].(int64) != 42 {
			t.Fatalf("got %v", data)
		}
	})

	run(core.KindCount, "StatsReportCardinalities", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool { return q.(int64) > 1 }}}
		_, stats, err := RunOpErr(d, op, CollectionChannel(int64(1), int64(2), int64(3)))
		if err != nil {
			t.Fatal(err)
		}
		if stats == nil || stats.Ops[op].OutCard != 2 {
			t.Fatalf("stats = %+v", stats)
		}
		if stats.Runtime <= 0 {
			t.Fatal("stage runtime not measured")
		}
	})

	run(core.KindMap, "SniffersObserveQuanta", func(t *testing.T) {
		op := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q }}}
		var sniffed []any
		stage := &core.Stage{
			ID: 1, Platform: d.Name(),
			Ops: []*core.Operator{op}, TerminalOuts: []*core.Operator{op},
			Sniffers: map[*core.Operator]func(any){op: func(q any) { sniffed = append(sniffed, q) }},
		}
		in := core.NewInputs()
		in.SetMain(op, 0, CollectionChannel(int64(1), int64(2)))
		if _, _, err := d.Execute(stage, in); err != nil {
			t.Fatal(err)
		}
		if len(sniffed) != 2 {
			t.Fatalf("sniffed %d quanta, want 2", len(sniffed))
		}
	})
}
