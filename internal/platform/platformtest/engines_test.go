package platformtest_test

// The chain kernel is the only way the narrow kinds and the declarative
// reduce-by run, so every engine is held to the reference interpreter on the
// shortest chains there are: each narrow kind alone (a chain of length one)
// — plain, under a sniffer, and failing — and a declarative reduce-by with
// no narrow run in front of it (a chain of zero narrow steps).

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/platformtest"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

func engines() []core.Driver {
	return []core.Driver{
		streams.New(nil),
		spark.NewWithConfig(nil, spark.Config{Parallelism: 4}),
		flink.NewWithConfig(nil, flink.Config{Parallelism: 4}),
		relstore.New(relstore.Config{}, relstore.NewStore("pg")),
	}
}

// checkSniffed runs p with a sniffer on op and holds what it saw to the
// reference's output of op.
func checkSniffed(t *testing.T, d core.Driver, p *core.Plan, op *core.Operator) {
	t.Helper()
	want, err := platformtest.Interpret(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sniffed []any
	sniffers := map[*core.Operator]func(any){op: func(q any) { sniffed = append(sniffed, q) }}
	if _, _, err := platformtest.ExecPlan(d, p, sniffers); err != nil {
		t.Fatal(err)
	}
	if err := platformtest.SameMultiset(sniffed, want[op]); err != nil {
		t.Fatalf("sniffer on %s: %v", op, err)
	}
}

func TestLoneNarrowOperators(t *testing.T) {
	ints := []any{int64(1), int64(2), int64(3), int64(4), int64(5)}
	recs := []any{core.Record{int64(1), "a", 0.5}, core.Record{int64(2), "b", 1.5}}
	cases := []struct {
		name    string
		op, bad core.Operator // bad must fail the stage with failure
		failure string
		in      []any
	}{
		{"Map",
			core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { return q.(int64) * 10 }}},
			core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(any) any { panic("boom") }}}, "UDF panic: boom", ints},
		{"Filter",
			core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(q any) bool { return q.(int64)%2 == 1 }}},
			core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(any) bool { panic("boom") }}}, "UDF panic: boom", ints},
		{"FilterWhere",
			core.Operator{Kind: core.KindFilter, Params: core.Params{Where: &core.Predicate{Col: 0, Op: core.PredGt, Value: int64(1)}}},
			core.Operator{Kind: core.KindFilter}, "lacks a pred UDF or a Where predicate", recs},
		{"FlatMap",
			core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(q any) []any { return []any{q, q} }}},
			core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(any) []any { panic("boom") }}}, "UDF panic: boom", ints},
		{"Project",
			core.Operator{Kind: core.KindProject, Params: core.Params{Columns: []int{2, 0}}},
			core.Operator{Kind: core.KindProject, Params: core.Params{Columns: []int{7}}}, "UDF panic", recs},
	}
	for _, d := range engines() {
		for _, c := range cases {
			if d.Name() == relstore.Platform && c.op.Kind != core.KindFilter && c.op.Kind != core.KindProject {
				continue // not a relational kind
			}
			plan := func(op core.Operator) (*core.Plan, *core.Operator) {
				p := core.NewPlan("lone-" + c.name)
				src := p.NewOperator(core.KindCollectionSource, "src")
				src.Params.Collection = c.in
				return p, p.Chain(src, p.Add(&op))
			}
			t.Run(d.Name()+"/"+c.name, func(t *testing.T) {
				p, op := plan(c.op)
				if stats := platformtest.CheckPlan(t, d, p); len(stats.FusedChains) != 0 {
					t.Fatalf("a lone operator reported as a fused pipeline: %v", stats.FusedChains)
				}
				checkSniffed(t, d, p, op)

				p, _ = plan(c.bad)
				if _, _, err := platformtest.ExecPlan(d, p, nil); err == nil || !strings.Contains(err.Error(), c.failure) {
					t.Fatalf("stage error = %v, want one naming %q", err, c.failure)
				}
			})
		}
	}
}

func TestStandAloneDeclarativeReduceBy(t *testing.T) {
	// The reduce-by's producer is a join, so no narrow run can absorb it.
	p := core.NewPlan("join-agg")
	left := p.NewOperator(core.KindCollectionSource, "left")
	right := p.NewOperator(core.KindCollectionSource, "right")
	for i := 0; i < 60; i++ {
		left.Params.Collection = append(left.Params.Collection, core.Record{int64(i % 6), int64(i)})
		right.Params.Collection = append(right.Params.Collection, core.Record{int64(i % 4), float64(i) / 2})
	}
	join := p.NewOperator(core.KindJoin, "join")
	key := func(q any) any { return q.(core.Record)[0] }
	join.UDF = core.UDFs{Key: key, KeyRight: key, Combine: func(l, r any) any {
		return core.Record{l.(core.Record)[0], l.(core.Record)[1], r.(core.Record)[1]}
	}}
	p.Connect(left, join, 0)
	p.Connect(right, join, 1)
	agg := p.NewOperator(core.KindReduceBy, "agg")
	expr := &core.ReduceExpr{GroupCols: []int{0}, Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 1}, {Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggMin, Col: 2}, {Op: core.AggMax, Col: 1}, {Op: core.AggAvg, Col: 2},
	}}
	agg.UDF = core.UDFs{ReduceExpr: expr, Key: expr.KeyFn()}
	p.Connect(join, agg, 0)
	for _, d := range engines() {
		t.Run(d.Name(), func(t *testing.T) {
			platformtest.CheckPlan(t, d, p)
			checkSniffed(t, d, p, agg)
		})
	}
}

// TestReduceByLackingUDFFailsAtCompile: a reduce-by without its key or
// reduce UDF is reported by the operator table's check before its chain
// compiles, naming the operator and the missing role — on every engine,
// behind a narrow step or alone, and never as a UDF panic of the fold that
// would call it.
func TestReduceByLackingUDFFailsAtCompile(t *testing.T) {
	key := func(q any) any { return q.(core.Record)[0] }
	first := func(a, _ any) any { return a }
	for _, d := range engines() {
		for role, udf := range map[string]core.UDFs{"key": {Reduce: first}, "reduce": {Key: key}} {
			for _, behindFilter := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/no-%s/behind-filter=%v", d.Name(), role, behindFilter), func(t *testing.T) {
					p := core.NewPlan("reduce-by-lacks")
					head := p.NewOperator(core.KindCollectionSource, "src")
					head.Params.Collection = []any{core.Record{int64(1), "a"}, core.Record{int64(1), "b"}}
					if behindFilter {
						f := p.NewOperator(core.KindFilter, "all")
						f.UDF.Pred = func(any) bool { return true }
						head = p.Chain(head, f)
					}
					rb := p.Chain(head, p.Add(&core.Operator{Kind: core.KindReduceBy, Label: "rb", UDF: udf}))
					_, _, err := platformtest.ExecPlan(d, p, nil)
					if want := fmt.Sprintf("%s lacks a %s UDF or a ReduceExpr", rb, role); err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "panic") {
						t.Fatalf("stage error = %v, want one naming %q", err, want)
					}
				})
			}
		}
	}
}

// execPlan runs p as one stage on d and returns what sink collected. With
// inStage the collection sources run inside the stage; otherwise their
// collections arrive as input channels carrying the very same slices
// (ExecPlan) — the only way in for relstore, which has no in-stage source.
func execPlan(d core.Driver, p *core.Plan, sink *core.Operator, inStage bool) ([]any, error) {
	if !inStage || d.Name() == relstore.Platform {
		outs, _, err := platformtest.ExecPlan(d, p, nil)
		return outs[sink], err
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: order, TerminalOuts: []*core.Operator{sink}}
	outs, _, err := d.Execute(stage, core.NewInputs())
	if err != nil {
		return nil, err
	}
	return outs[sink].Payload.(*core.SliceDataset).Data, nil
}

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestUDFPanicFailsStage: a UDF panic anywhere in a stage fails the job with
// "UDF panic" — never a truncated result — whatever reads the panicking
// operator's output, and whether that output is produced eagerly (straight
// off a source) or by a lazy pipeline (behind a union, which flink and
// streams chain lazily).
func TestUDFPanicFailsStage(t *testing.T) {
	mod := func(q any) any { return q.(int64) % 10 }
	downstream := map[string]func(p *core.Plan, bad *core.Operator) *core.Operator{
		"sink": func(p *core.Plan, bad *core.Operator) *core.Operator { return bad },
		"zip-with-id": func(p *core.Plan, bad *core.Operator) *core.Operator {
			return p.Chain(bad, p.NewOperator(core.KindZipWithID, "zip"))
		},
		"distinct": func(p *core.Plan, bad *core.Operator) *core.Operator {
			return p.Chain(bad, p.NewOperator(core.KindDistinct, "distinct"))
		},
		"join-right": func(p *core.Plan, bad *core.Operator) *core.Operator {
			left := p.NewOperator(core.KindCollectionSource, "left")
			left.Params.Collection = ints(50)
			join := p.NewOperator(core.KindJoin, "join")
			join.UDF = core.UDFs{Key: mod, KeyRight: mod}
			p.Connect(left, join, 0)
			p.Connect(bad, join, 1)
			return join
		},
		"union": func(p *core.Plan, bad *core.Operator) *core.Operator {
			other := p.NewOperator(core.KindCollectionSource, "other")
			other.Params.Collection = ints(50)
			union := p.NewOperator(core.KindUnion, "union")
			p.Connect(bad, union, 0)
			p.Connect(other, union, 1)
			return union
		},
	}
	for _, d := range engines() {
		relational := d.Name() == relstore.Platform
		for name, build := range downstream {
			if relational && (name == "zip-with-id" || name == "union") {
				continue // not a relational kind
			}
			for _, lazy := range []bool{false, true} {
				if relational && lazy {
					continue // union is not a relational kind
				}
				t.Run(fmt.Sprintf("%s/%s/lazy=%v", d.Name(), name, lazy), func(t *testing.T) {
					p := core.NewPlan("panic")
					head := p.NewOperator(core.KindCollectionSource, "src")
					head.Params.Collection = ints(5000)
					if lazy {
						empty := p.NewOperator(core.KindCollectionSource, "empty")
						empty.Params.Collection = []any{}
						union := p.NewOperator(core.KindUnion, "pass")
						p.Connect(head, union, 0)
						p.Connect(empty, union, 1)
						head = union
					}
					boom := func(q any) { // the store runs filters, not maps
						if q.(int64) == 4242 {
							panic("boom at 4242")
						}
					}
					bad := &core.Operator{Kind: core.KindMap, Label: "bad", UDF: core.UDFs{Map: func(q any) any { boom(q); return q }}}
					if relational {
						bad = &core.Operator{Kind: core.KindFilter, Label: "bad", UDF: core.UDFs{Pred: func(q any) bool { boom(q); return true }}}
					}
					sink := p.Chain(head, p.Add(bad))
					sink = p.Chain(build(p, sink), p.NewOperator(core.KindCollectionSink, "sink"))
					got, err := execPlan(d, p, sink, true)
					if err == nil || !strings.Contains(err.Error(), "UDF panic") {
						t.Fatalf("stage returned %d quanta and error %v, want a UDF panic error", len(got), err)
					}
				})
			}
		}
	}
}

// partitioned lists the engines the partition-ownership rule names: the ones
// that hand partitions to user code and results back without a table between.
func partitioned() (out []core.Driver) {
	for _, d := range engines() {
		if d.Name() != relstore.Platform {
			out = append(out, d)
		}
	}
	return out
}

// checkHeld runs the plan build makes over one caller-held collection twice on
// every partitioned engine, entering as an in-stage source and as a collection
// channel, and holds each run's sink to want. after sees every result.
func checkHeld(t *testing.T, n int, build func(p *core.Plan, src *core.Operator) *core.Operator, want func(i int) int64, after func(got []any)) {
	for _, d := range partitioned() {
		for _, inStage := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/in-stage-source=%v", d.Name(), inStage), func(t *testing.T) {
				held := ints(n)
				for run := 1; run <= 2; run++ {
					p := core.NewPlan("held")
					src := p.NewOperator(core.KindCollectionSource, "src")
					src.Params.Collection = held
					sink := p.Chain(build(p, src), p.NewOperator(core.KindCollectionSink, "sink"))
					got, err := execPlan(d, p, sink, inStage)
					if err != nil {
						t.Fatalf("run %d: %v", run, err)
					}
					sorted := platformtest.SortedInts(t, got)
					if len(sorted) != n {
						t.Fatalf("run %d: sink returned %d quanta, want %d", run, len(sorted), n)
					}
					for i, v := range sorted {
						if v != want(i) {
							t.Fatalf("run %d: quantum %d is %d, want %d (the held collection was overwritten)", run, i, v, want(i))
						}
					}
					after(got)
					for i, q := range held {
						if q != int64(i) {
							t.Fatalf("run %d: the caller's slice was written at %d: %v", run, i, q)
						}
					}
				}
			})
		}
	}
}

// TestCallerOwnedInputSurvivesMutatingUDF pins the entry side of the
// partition-ownership rule: a MapPart UDF may overwrite the partition it is
// handed, so it must be handed a slice the stage allocated — straight off the
// caller-held collection, behind a blocking operator that read it in place,
// and beside another consumer of the same cache operator, whose output must
// be the cache's and not the UDF's writes.
func TestCallerOwnedInputSurvivesMutatingUDF(t *testing.T) {
	double := func(p *core.Plan, in *core.Operator) *core.Operator {
		mp := p.NewOperator(core.KindMapPart, "double")
		mp.UDF.MapPart = func(part []any) []any {
			for i, q := range part {
				part[i] = q.(int64) * 2
			}
			return part
		}
		return p.Chain(in, mp)
	}
	doubled := func(i int) int64 { return int64(2 * i) }
	t.Run("direct", func(t *testing.T) { checkHeld(t, 1000, double, doubled, func([]any) {}) })
	t.Run("behind-distinct", func(t *testing.T) {
		checkHeld(t, 1000, func(p *core.Plan, src *core.Operator) *core.Operator {
			return double(p, p.Chain(src, p.NewOperator(core.KindDistinct, "distinct")))
		}, doubled, func([]any) {})
	})
	t.Run("beside-a-cache-consumer", func(t *testing.T) {
		checkHeld(t, 1000, func(p *core.Plan, src *core.Operator) *core.Operator {
			cache := p.Chain(src, p.NewOperator(core.KindCache, "cache"))
			double(p, cache)
			return cache // the sink is the cache's second consumer
		}, func(i int) int64 { return int64(i) }, func([]any) {})
	})
}

// TestCollectionSinkOutputIsCallerOwned pins the exit side: what a collection
// sink hands back never aliases a slice the stage was handed, so a caller
// overwriting a result leaves the held collection — and a second run over it
// — unchanged, however directly the sink reads the source.
func TestCollectionSinkOutputIsCallerOwned(t *testing.T) {
	shapes := map[string]func(p *core.Plan, src *core.Operator) *core.Operator{
		"source-sink": func(p *core.Plan, src *core.Operator) *core.Operator { return src },
		"source-cache-sink": func(p *core.Plan, src *core.Operator) *core.Operator {
			return p.Chain(src, p.NewOperator(core.KindCache, "cache"))
		},
		"source-union-sink": func(p *core.Plan, src *core.Operator) *core.Operator {
			empty := p.NewOperator(core.KindCollectionSource, "empty")
			empty.Params.Collection = []any{}
			union := p.NewOperator(core.KindUnion, "union")
			p.Connect(src, union, 0)
			p.Connect(empty, union, 1)
			return union
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			checkHeld(t, 400, shape, func(i int) int64 { return int64(i) }, func(got []any) {
				for i := range got {
					got[i] = int64(-1) // the caller owns the result
				}
			})
		})
	}
}

// TestForeignPayloadIsAnError: a channel whose payload is not what its
// descriptor promises — an executor bug, a driver written elsewhere — is an
// error from every conversion and every engine's FromChannel, never a panic
// (a conversion runs on the executor's goroutine, outside RunStage's recover).
func TestForeignPayloadIsAnError(t *testing.T) {
	type foreign struct{}
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withDFS := []core.Driver{streams.New(store), spark.New(store), flink.New(store), relstore.New(relstore.Config{}, relstore.NewStore("pg"))}
	conversions := 0
	for _, d := range withDFS {
		for _, cv := range d.Conversions() {
			conversions++
			if out, err := cv.Convert(core.NewChannel(core.ChannelDescriptor{Name: cv.From}, foreign{}, 1)); err == nil {
				t.Errorf("%s converted a foreign payload to %v", cv.Name, out.Payload)
			}
		}
	}
	if conversions != 15 {
		t.Errorf("checked %d conversions, the bundled engines declare 15", conversions)
	}
	for _, d := range engines() {
		for _, name := range []string{"collection", "file", "dfs", "rdd", "rdd-cached", "dataset", "relation"} {
			op := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(any) bool { return true }}}
			_, _, err := platformtest.RunOpErr(d, op, core.NewChannel(core.ChannelDescriptor{Name: name, Reusable: true}, foreign{}, 1))
			if err == nil || strings.Contains(err.Error(), "panic") {
				t.Errorf("%s reading a foreign %s channel: error %v, want a checked error", d.Name(), name, err)
			}
		}
	}
}

// TestBatchFramedDFSFileReadsAsRows: a DFS quanta file written with column
// batch frames and row frames, over many blocks, reads back as the file's
// rows in order through spark's per-block loader, flink.dfs-load and
// streams.dfs-get: batch frames are expanded at the channel boundary.
func TestBatchFramedDFSFileReadsAsRows(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 8 << 10, Replication: 1, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]any, 3*core.CodecBatchRows+100)
	for i := range data {
		data[i] = core.Record{int64(i), fmt.Sprintf("g%d", i%5), float64(i) / 2}
	}
	data = append(data, core.KV{Key: "tail", Value: int64(1)}, "last") // row frames after the batches
	if err := driverutil.WriteDFSQuanta(store, "batched.rqb", data); err != nil {
		t.Fatal(err)
	}
	if _, blocks, err := store.Stat("batched.rqb"); err != nil || len(blocks) < 4 {
		t.Fatalf("%d blocks (err %v): the per-block path needs several", len(blocks), err)
	}
	conf := spark.Config{Parallelism: 3}
	loads := map[string]core.Driver{
		"spark.dfs-load":  spark.NewWithConfig(store, conf),
		"flink.dfs-load":  flink.New(store),
		"streams.dfs-get": streams.New(store),
	}
	for name, d := range loads {
		var load *core.Conversion
		for _, cv := range d.Conversions() {
			if cv.Name == name {
				load = cv
			}
		}
		if load == nil {
			t.Fatalf("%s declares no %s", d.Name(), name)
		}
		ch, err := load.Convert(core.NewChannel(driverutil.DFSChannel, "dfs://batched.rqb", int64(len(data))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := driverutil.ChannelQuanta(ch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(data) {
			t.Fatalf("%s: %d quanta, the file holds %d", name, len(got), len(data))
		}
		for i := range data {
			if !reflect.DeepEqual(got[i], data[i]) {
				t.Fatalf("%s: quantum %d is %#v, the file's is %#v", name, i, got[i], data[i])
			}
		}
	}
}
