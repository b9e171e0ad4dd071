package driverutil

import (
	"reflect"
	"strings"
	"testing"

	"rheem/internal/core"
)

// chainPlan builds src -> map -> filter -> map -> reduce-by -> map -> sink
// and returns the ops in topo order.
func chainPlan() []*core.Operator {
	p := core.NewPlan("fuse-test")
	src := p.NewOperator(core.KindCollectionSource, "src")
	m1 := p.NewOperator(core.KindMap, "m1")
	m1.UDF.Map = func(q any) any { return q }
	f1 := p.NewOperator(core.KindFilter, "f1")
	f1.UDF.Pred = func(q any) bool { return true }
	m2 := p.NewOperator(core.KindMap, "m2")
	m2.UDF.Map = func(q any) any { return q }
	rb := p.NewOperator(core.KindReduceBy, "rb")
	m3 := p.NewOperator(core.KindMap, "m3")
	m3.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(core.KindCollectionSink, "sink")
	p.Chain(src, m1, f1, m2, rb, m3, sink)
	return []*core.Operator{src, m1, f1, m2, rb, m3, sink}
}

func TestPlanFusionDetectsMaximalChain(t *testing.T) {
	ops := chainPlan()
	src, m1, f1, m2, rb, m3 := ops[0], ops[1], ops[2], ops[3], ops[4], ops[5]
	stage := &core.Stage{ID: 1, Platform: "test", Ops: ops, TerminalOuts: []*core.Operator{ops[6]}}

	chains, covered := PlanFusion(stage)
	chain := chains[m1]
	if chain == nil {
		t.Fatalf("no chain rooted at m1; chains=%v covered=%v", chains, covered)
	}
	// rb, an opaque-UDF reduce-by, terminates the run that feeds it.
	if want := []*core.Operator{m1, f1, m2}; !reflect.DeepEqual(chain.Ops, want) || chain.Agg != rb || chain.Out() != rb {
		t.Fatalf("chain = %s, want m1 → f1 → m2 → rb", chain)
	}
	if covered[m1] || !covered[f1] || !covered[m2] || !covered[rb] {
		t.Fatalf("coverage wrong: %v", covered)
	}
	// src (not fusible) and sink must not root chains; m3 alone is a chain of
	// length one.
	for _, op := range []*core.Operator{src, rb, ops[6]} {
		if chains[op] != nil {
			t.Fatalf("unexpected chain rooted at %s", op)
		}
	}
	if c := chains[m3]; c == nil || len(c.Ops) != 1 || c.Agg != nil || c.Out() != m3 {
		t.Fatalf("lone map not a chain of one: %v", c)
	}
	if covered[m3] {
		t.Fatalf("m3 wrongly covered: %v", covered)
	}

	// m2 terminal: the run ends there and rb heads its own zero-step chain.
	stage.TerminalOuts = []*core.Operator{m2, ops[6]}
	chains, covered = PlanFusion(stage)
	if c := chains[rb]; c == nil || len(c.Ops) != 0 || c.Agg != rb || covered[rb] {
		t.Fatalf("stand-alone UDF reduce-by chain = %v (covered %v)", c, covered[rb])
	}
}

func TestPlanFusionDeclarativeReduceBy(t *testing.T) {
	// A declarative reduce-by always runs in a chain: absorbed behind the
	// narrow run that feeds it — sniffed or not — and as a chain with zero
	// narrow steps when its producer is not one.
	ops := chainPlan()
	m1, m2, rb, m3 := ops[1], ops[3], ops[4], ops[5]
	rb.UDF.ReduceExpr = &core.ReduceExpr{GroupCols: []int{0}, Aggs: []core.AggSpec{{Op: core.AggCount, Col: core.WholeQuantum}}}
	stage := &core.Stage{ID: 1, Platform: "test", Ops: ops, TerminalOuts: []*core.Operator{ops[6]},
		Sniffers: map[*core.Operator]func(any){rb: func(any) {}}}
	chains, covered := PlanFusion(stage)
	if c := chains[m1]; c == nil || c.Agg != rb || c.Out() != rb || !covered[rb] {
		t.Fatalf("reduce-by not absorbed behind m1..m2: %v", c)
	}
	if chains[rb] != nil || chains[m3] == nil {
		t.Fatalf("chains after the absorbed reduce-by wrong: %v", chains)
	}

	// m2 terminal: the run ends there and rb heads its own zero-step chain.
	stage.TerminalOuts = []*core.Operator{m2, ops[6]}
	chains, covered = PlanFusion(stage)
	c := chains[rb]
	if c == nil || len(c.Ops) != 0 || c.Head() != rb || c.Out() != rb || covered[rb] {
		t.Fatalf("stand-alone reduce-by chain = %v (covered %v)", c, covered[rb])
	}
	if !reflect.DeepEqual(c.AllOps(), []*core.Operator{rb}) {
		t.Fatalf("AllOps = %v", c.AllOps())
	}
}

func TestPlanFusionStopsAtTerminalOut(t *testing.T) {
	ops := chainPlan()
	m1, f1, m2 := ops[1], ops[2], ops[3]
	// f1's output must be materialized: it may end a chain but not be fused
	// past.
	stage := &core.Stage{ID: 1, Platform: "test", Ops: ops, TerminalOuts: []*core.Operator{f1, ops[6]}}
	chains, covered := PlanFusion(stage)
	chain := chains[m1]
	if chain == nil || len(chain.Ops) != 2 || chain.Tail() != f1 {
		t.Fatalf("chain = %v, want m1 → f1", chain)
	}
	if covered[m2] {
		t.Fatal("m2 must not be covered when f1 is terminal")
	}
}

func TestPlanFusionStopsAtFanOut(t *testing.T) {
	p := core.NewPlan("fanout")
	src := p.NewOperator(core.KindCollectionSource, "src")
	m1 := p.NewOperator(core.KindMap, "m1")
	m1.UDF.Map = func(q any) any { return q }
	m2 := p.NewOperator(core.KindMap, "m2")
	m2.UDF.Map = func(q any) any { return q }
	s1 := p.NewOperator(core.KindCollectionSink, "s1")
	s2 := p.NewOperator(core.KindCollectionSink, "s2")
	p.Chain(src, m1, m2, s1)
	p.Connect(m1, s2, 0) // m1 feeds two consumers
	stage := &core.Stage{ID: 1, Platform: "test",
		Ops:          []*core.Operator{src, m1, m2, s1, s2},
		TerminalOuts: []*core.Operator{s1, s2}}
	chains, covered := PlanFusion(stage)
	if len(chains) != 2 || len(chains[m1].Ops) != 1 || len(chains[m2].Ops) != 1 || len(covered) != 0 {
		t.Fatalf("fan-out must break fusion into two chains of one, got %v", chains)
	}
}

func TestPlanFusionKeepsSniffedOps(t *testing.T) {
	// Sniffed operators (exploratory-mode checkpoints) stay fusible: the
	// kernel invokes the sniffer at the step's emission points instead of
	// breaking the chain — otherwise enabling progressive optimization
	// would silently forfeit fusion.
	ops := chainPlan()
	m1, f1, m2 := ops[1], ops[2], ops[3]
	stage := &core.Stage{ID: 1, Platform: "test", Ops: ops, TerminalOuts: []*core.Operator{ops[6]},
		Sniffers: map[*core.Operator]func(any){f1: func(any) {}}}
	chains, _ := PlanFusion(stage)
	chain := chains[m1]
	if chain == nil || !reflect.DeepEqual(chain.Ops, []*core.Operator{m1, f1, m2}) {
		t.Fatalf("sniffed chain = %v, want m1 → f1 → m2", chain)
	}
}

func TestFusedKernelSniffObservesEveryEmission(t *testing.T) {
	p := core.NewPlan("sniff")
	m := p.NewOperator(core.KindMap, "double")
	m.UDF.Map = func(q any) any { return q.(int64) * 2 }
	f := p.NewOperator(core.KindFilter, "mod4")
	f.UDF.Pred = func(q any) bool { return q.(int64)%4 != 0 }
	k, err := CompileChain([]*core.Operator{m, f})
	if err != nil {
		t.Fatal(err)
	}
	var mapSaw, filterSaw []any
	k.SetSniff(0, func(q any) { mapSaw = append(mapSaw, q) })
	k.SetSniff(1, func(q any) { filterSaw = append(filterSaw, q) })
	in := []any{int64(1), int64(2), int64(3), int64(4)}
	k.Run(in, nil, nil)
	// The map step emits every doubled quantum; the filter only survivors.
	if want := []any{int64(2), int64(4), int64(6), int64(8)}; !reflect.DeepEqual(mapSaw, want) {
		t.Fatalf("map sniff saw %v, want %v", mapSaw, want)
	}
	if want := []any{int64(2), int64(6)}; !reflect.DeepEqual(filterSaw, want) {
		t.Fatalf("filter sniff saw %v, want %v", filterSaw, want)
	}
	// Tail kernels (relstore's post-pushdown remainder) keep the sniffs.
	mapSaw, filterSaw = nil, nil
	k.Tail(1).Run([]any{int64(2), int64(4)}, nil, nil)
	if len(mapSaw) != 0 || !reflect.DeepEqual(filterSaw, []any{int64(2)}) {
		t.Fatalf("tail kernel sniffs: map %v filter %v", mapSaw, filterSaw)
	}
}

func TestFusedKernelSemanticsAndCounts(t *testing.T) {
	p := core.NewPlan("kernel")
	m := p.NewOperator(core.KindMap, "double")
	m.UDF.Map = func(q any) any { return q.(int64) * 2 }
	f := p.NewOperator(core.KindFilter, "mod3")
	f.UDF.Pred = func(q any) bool { return q.(int64)%3 != 0 }
	fm := p.NewOperator(core.KindFlatMap, "dup")
	fm.UDF.FlatMap = func(q any) []any { return []any{q, q.(int64) + 1} }
	ops := []*core.Operator{m, f, fm}

	k, err := CompileChain(ops)
	if err != nil {
		t.Fatal(err)
	}
	in := []any{int64(0), int64(1), int64(2), int64(3), int64(4), int64(5)}
	counts := make([]int64, k.Len())
	got := k.Run(in, counts, nil)

	// Reference: apply the ops sequentially.
	var want []any
	for _, q := range in {
		d := q.(int64) * 2
		if d%3 == 0 {
			continue
		}
		want = append(want, any(d), any(d+1))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kernel output %v, want %v", got, want)
	}
	// map emits 6, filter passes 4 (2,4,8,10), flatmap emits 8.
	if counts[0] != 6 || counts[1] != 4 || counts[2] != 8 {
		t.Fatalf("counts = %v, want [6 4 8]", counts)
	}
}

func TestFusedKernelProject(t *testing.T) {
	p := core.NewPlan("proj")
	pr := p.NewOperator(core.KindProject, "pr")
	pr.Params.Columns = []int{1, 0}
	id := p.NewOperator(core.KindProject, "identity") // nil columns: passthrough
	k, err := CompileChain([]*core.Operator{pr, id})
	if err != nil {
		t.Fatal(err)
	}
	in := []any{core.Record{"a", int64(1)}, core.Record{"b", int64(2)}}
	got := k.Run(in, nil, nil)
	want := []any{core.Record{int64(1), "a"}, core.Record{int64(2), "b"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("project output %v, want %v", got, want)
	}

	// Non-Record quanta must panic with the Project error message (surfacing
	// as a failed stage through RunStage's recover).
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on non-Record quantum")
		}
		if !strings.Contains(r.(string), "is not a Record") {
			t.Fatalf("panic = %v", r)
		}
	}()
	k.Run([]any{int64(7)}, nil, nil)
}

func TestFusedKernelReusesBuffer(t *testing.T) {
	p := core.NewPlan("buf")
	m := p.NewOperator(core.KindMap, "id")
	m.UDF.Map = func(q any) any { return q }
	f := p.NewOperator(core.KindFilter, "all")
	f.UDF.Pred = func(q any) bool { return true }
	k, err := CompileChain([]*core.Operator{m, f})
	if err != nil {
		t.Fatal(err)
	}
	in := []any{int64(1), int64(2), int64(3)}
	buf := make([]any, 0, 8)
	out := k.Run(in, nil, buf)
	if len(out) != 3 || cap(out) != 8 {
		t.Fatalf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
	// Without a buffer, the output is sized from the input partition.
	out2 := k.Run(in, nil, nil)
	if len(out2) != 3 || cap(out2) != 3 {
		t.Fatalf("fresh buffer mis-sized: len=%d cap=%d", len(out2), cap(out2))
	}
}

func TestCompileChainRejectsWideKind(t *testing.T) {
	p := core.NewPlan("bad")
	rb := p.NewOperator(core.KindReduceBy, "rb")
	if _, err := CompileChain([]*core.Operator{rb}); err == nil {
		t.Fatal("expected error compiling a wide kind")
	}
}
