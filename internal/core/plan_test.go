package core

import (
	"strings"
	"testing"
)

// buildLinearPlan constructs source -> map -> sink.
func buildLinearPlan() (*Plan, *Operator, *Operator, *Operator) {
	p := NewPlan("linear")
	src := p.Add(&Operator{Kind: KindCollectionSource, Params: Params{Collection: []any{1, 2}}})
	m := p.Add(&Operator{Kind: KindMap, Label: "inc", UDF: UDFs{Map: func(q any) any { return q.(int) + 1 }}})
	sink := p.Add(&Operator{Kind: KindCollectionSink})
	p.Chain(src, m, sink)
	return p, src, m, sink
}

func TestPlanValidateLinear(t *testing.T) {
	p, src, m, sink := buildLinearPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := m.Inputs()[0]; got != src {
		t.Errorf("map input = %v", got)
	}
	if got := m.Outputs()[0]; got != sink {
		t.Errorf("map output = %v", got)
	}
	if srcs := p.Sources(); len(srcs) != 1 || srcs[0] != src {
		t.Errorf("Sources = %v", srcs)
	}
	if sinks := p.Sinks(); len(sinks) != 1 || sinks[0] != sink {
		t.Errorf("Sinks = %v", sinks)
	}
}

func TestPlanTopoOrder(t *testing.T) {
	p := NewPlan("diamond")
	src := p.NewOperator(KindCollectionSource, "src")
	src.Params.Collection = []any{1}
	f1 := p.NewOperator(KindFilter, "f1")
	f1.UDF.Pred = func(any) bool { return true }
	f2 := p.NewOperator(KindFilter, "f2")
	f2.UDF.Pred = func(any) bool { return true }
	join := p.NewOperator(KindUnion, "u")
	sink := p.NewOperator(KindCollectionSink, "")
	p.Connect(src, f1, 0)
	p.Connect(src, f2, 0)
	p.Connect(f1, join, 0)
	p.Connect(f2, join, 1)
	p.Connect(join, sink, 0)

	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Operator]int{}
	for i, o := range order {
		pos[o] = i
	}
	if !(pos[src] < pos[f1] && pos[src] < pos[f2] && pos[f1] < pos[join] && pos[f2] < pos[join] && pos[join] < pos[sink]) {
		t.Fatalf("bad topological order: %v", order)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidateDetectsUnconnectedInput(t *testing.T) {
	p := NewPlan("bad")
	p.NewOperator(KindCollectionSource, "").Params.Collection = []any{1}
	p.NewOperator(KindMap, "orphan").UDF.Map = func(q any) any { return q }
	p.NewOperator(KindCollectionSink, "")
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error for unconnected inputs")
	}
}

func TestPlanValidateDetectsCycle(t *testing.T) {
	p := NewPlan("cycle")
	a := p.NewOperator(KindMap, "a")
	b := p.NewOperator(KindMap, "b")
	p.Connect(a, b, 0)
	p.Connect(b, a, 0)
	if _, err := p.TopoOrder(); err == nil {
		t.Fatal("expected cycle detection")
	}
}

func TestPlanValidateEmptyAndNoSink(t *testing.T) {
	if err := NewPlan("empty").Validate(); err == nil {
		t.Fatal("expected error for empty plan")
	}
	p := NewPlan("nosink")
	p.NewOperator(KindCollectionSource, "").Params.Collection = []any{1}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("expected no-sink error, got %v", err)
	}
}

func TestPlanLoopValidation(t *testing.T) {
	p := NewPlan("looped")
	src := p.NewOperator(KindCollectionSource, "init")
	src.Params.Collection = []any{0.0}
	loop := p.NewOperator(KindRepeat, "iter")
	loop.Params.Iterations = 3
	sink := p.NewOperator(KindCollectionSink, "")
	p.Chain(src, loop, sink)

	// No body yet: invalid.
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for loop without body")
	}

	body := NewPlan("body")
	in := body.NewOperator(KindCollectionSource, "loopvar")
	inc := body.NewOperator(KindMap, "inc")
	inc.UDF.Map = func(q any) any { return q.(float64) + 1 }
	body.Connect(in, inc, 0)
	body.LoopInput = in
	body.LoopOutput = inc
	loop.Body = body

	if err := p.Validate(); err != nil {
		t.Fatalf("Validate with body: %v", err)
	}

	// Zero iterations: invalid.
	loop.Params.Iterations = 0
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for Repeat without iteration count")
	}
}

func TestPlanBroadcastEdges(t *testing.T) {
	p := NewPlan("bcast")
	big := p.NewOperator(KindCollectionSource, "big")
	big.Params.Collection = []any{1, 2, 3}
	small := p.NewOperator(KindCollectionSource, "small")
	small.Params.Collection = []any{10}
	m := p.NewOperator(KindMap, "use")
	m.UDF.Map = func(q any) any { return q }
	sink := p.NewOperator(KindCollectionSink, "")
	p.Connect(big, m, 0)
	p.Broadcast(small, m)
	p.Connect(m, sink, 0)

	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if bs := m.Broadcasts(); len(bs) != 1 || bs[0] != small {
		t.Fatalf("Broadcasts = %v", bs)
	}
	// Broadcast edges participate in topological ordering.
	order, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Operator]int{}
	for i, o := range order {
		pos[o] = i
	}
	if pos[small] > pos[m] {
		t.Fatal("broadcast producer ordered after consumer")
	}
}

func TestPlanStringRendering(t *testing.T) {
	p, _, _, _ := buildLinearPlan()
	s := p.String()
	for _, want := range []string{"RheemPlan", "CollectionSource", "Map(inc)", "CollectionSink", "<-"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

// TestOperatorArities walks every built-in kind through the table's
// classification.
func TestOperatorArities(t *testing.T) {
	cases := []struct {
		k            Kind
		in, out      int
		loop, narrow bool
	}{
		{KindTextFileSource, 0, 1, false, false},
		{KindCollectionSource, 0, 1, false, false},
		{KindTableSource, 0, 1, false, false},
		{KindMap, 1, 1, false, true},
		{KindFlatMap, 1, 1, false, true},
		{KindFilter, 1, 1, false, true},
		{KindProject, 1, 1, false, true},
		{KindMapPart, 1, 1, false, false},
		{KindSample, 1, 1, false, false},
		{KindDistinct, 1, 1, false, false},
		{KindSort, 1, 1, false, false},
		{KindCount, 1, 1, false, false},
		{KindReduce, 1, 1, false, false},
		{KindReduceBy, 1, 1, false, false},
		{KindGroupBy, 1, 1, false, false},
		{KindZipWithID, 1, 1, false, false},
		{KindCache, 1, 1, false, false},
		{KindJoin, 2, 1, false, false},
		{KindIEJoin, 2, 1, false, false},
		{KindCartesian, 2, 1, false, false},
		{KindUnion, 2, 1, false, false},
		{KindIntersect, 2, 1, false, false},
		{KindCoGroup, 2, 1, false, false},
		{KindRepeat, 1, 1, true, false},
		{KindDoWhile, 1, 1, true, false},
		{KindPageRank, 1, 1, false, false},
		{KindCollectionSink, 1, 0, false, false},
		{KindTextFileSink, 1, 0, false, false},
	}
	for _, c := range cases {
		k := c.k
		if !k.Known() {
			t.Errorf("%s has no table entry", k)
		}
		if k.InArity() != c.in || k.OutArity() != c.out || k.IsLoop() != c.loop || k.IsNarrow() != c.narrow {
			t.Errorf("%s = (in %d, out %d, loop %v, narrow %v), want (%d, %d, %v, %v)",
				k, k.InArity(), k.OutArity(), k.IsLoop(), k.IsNarrow(), c.in, c.out, c.loop, c.narrow)
		}
		if k.IsSource() != (c.in == 0) || k.IsSink() != (c.out == 0) {
			t.Errorf("%s: IsSource %v, IsSink %v", k, k.IsSource(), k.IsSink())
		}
	}
	if n := len(cases); n != 28 {
		t.Fatalf("%d built-in kinds walked", n)
	}
	if Kind("NoSuchKind").Known() {
		t.Error("an undeclared kind reads as known")
	}
}

func TestDefaultSelectivities(t *testing.T) {
	if s := (&Operator{Kind: KindFilter}).DefaultSelectivity(); s != 0.5 {
		t.Errorf("filter default = %v", s)
	}
	if s := (&Operator{Kind: KindMap}).DefaultSelectivity(); s != 1 {
		t.Errorf("map default = %v", s)
	}
	o := &Operator{Kind: KindFilter, Selectivity: 0.01}
	if s := o.DefaultSelectivity(); s != 0.01 {
		t.Errorf("hint not honoured: %v", s)
	}
}

func TestEstimateOutCard(t *testing.T) {
	in := []CardEstimate{ExactCard(1000), ExactCard(10)}

	cases := []struct {
		op       *Operator
		loHi     [2]int64
		multiple bool
	}{
		{&Operator{Kind: KindMap}, [2]int64{1000, 1000}, false},
		{&Operator{Kind: KindFilter}, [2]int64{500, 500}, false},
		{&Operator{Kind: KindCount}, [2]int64{1, 1}, false},
		{&Operator{Kind: KindCartesian}, [2]int64{10000, 10000}, false},
		{&Operator{Kind: KindUnion}, [2]int64{1010, 1010}, false},
		{&Operator{Kind: KindSample, Params: Params{SampleSize: 17}}, [2]int64{17, 17}, false},
		{&Operator{Kind: KindSample, Params: Params{SampleFraction: 0.1}}, [2]int64{100, 100}, false},
	}
	for _, c := range cases {
		got := EstimateCardOf(c.op, in)
		if got.Low != c.loHi[0] || got.High != c.loHi[1] {
			t.Errorf("%s estimate = %v, want %v", c.op.Kind, got, c.loHi)
		}
	}

	// Join estimates widen and carry reduced confidence.
	j := EstimateCardOf(&Operator{Kind: KindJoin}, in)
	if j.Confidence >= 1 || j.Low > j.High {
		t.Errorf("join estimate not widened: %v", j)
	}
	// Selectivity hints override the join heuristic.
	jh := EstimateCardOf(&Operator{Kind: KindJoin, Selectivity: 0.5}, in)
	if jh.Low != 5000 {
		t.Errorf("hinted join = %v", jh)
	}
	// Collection sources know their cardinality exactly.
	cs := EstimateCardOf(&Operator{Kind: KindCollectionSource, Params: Params{Collection: []any{1, 2, 3}}}, nil)
	if cs.Low != 3 || cs.High != 3 || cs.Confidence != 1 {
		t.Errorf("collection source = %v", cs)
	}
	// File sources are unknown until sampled.
	fs := EstimateCardOf(&Operator{Kind: KindTextFileSource}, nil)
	if fs.Confidence > 0.1 || fs.High <= fs.Low {
		t.Errorf("file source should be wide/uncertain: %v", fs)
	}
}

func TestRegisterKind(t *testing.T) {
	const custom = Kind("MyScope")
	RegisterKind(custom, KindSpec{In: 1, Out: 1, Estimate: func(o *Operator, in []CardEstimate) CardEstimate {
		return in[0].Scale(0.25)
	}})
	if !custom.Known() || custom.InArity() != 1 || custom.OutArity() != 1 {
		t.Fatalf("registered kind reads in %d, out %d, known %v", custom.InArity(), custom.OutArity(), custom.Known())
	}
	p := NewPlan("custom")
	src := p.NewOperator(KindCollectionSource, "")
	src.Params.Collection = []any{1}
	c := p.NewOperator(custom, "")
	sink := p.NewOperator(KindCollectionSink, "")
	p.Chain(src, c, sink)
	if err := p.Validate(); err != nil {
		t.Fatalf("plan with custom kind: %v", err)
	}
	if got := EstimateCardOf(c, []CardEstimate{ExactCard(100)}); got.High != 25 {
		t.Errorf("registered estimator not used: %v", got)
	}
}

// TestRegisteredKindIsClassifiedByTheTable: a registered kind is classified
// by its entry everywhere a kind is classified — a registered sink is a sink
// to Plan.Sinks, Validate and RemoveUnreachable, and a registered 3-input
// kind has three inputs to Kind.InArity.
func TestRegisteredKindIsClassifiedByTheTable(t *testing.T) {
	const sinkKind, tri = Kind("ToySink"), Kind("ToyMerge3")
	RegisterKind(sinkKind, KindSpec{In: 1, Out: 0})
	RegisterKind(tri, KindSpec{In: 3, Out: 1})

	p := NewPlan("toy-sink")
	src := p.NewOperator(KindCollectionSource, "src")
	src.Params.Collection = []any{1}
	sink := p.NewOperator(sinkKind, "out")
	p.Connect(src, sink, 0)
	if sinks := p.Sinks(); len(sinks) != 1 || sinks[0] != sink {
		t.Fatalf("Sinks = %v, want the registered sink", sinks)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if removed := p.RemoveUnreachable(); len(removed) != 0 || len(p.Operators()) != 2 {
		t.Fatalf("RemoveUnreachable pruned %v", removed)
	}

	if tri.InArity() != 3 || tri.IsSource() || tri.IsSink() {
		t.Fatalf("3-input kind reads in %d", tri.InArity())
	}
	q := NewPlan("toy-merge")
	m := q.NewOperator(tri, "merge")
	for i := 0; i < 2; i++ {
		s := q.NewOperator(KindCollectionSource, "")
		s.Params.Collection = []any{i}
		q.Connect(s, m, i)
	}
	q.Chain(m, q.NewOperator(KindCollectionSink, ""))
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "2 of 3 inputs") {
		t.Fatalf("a 3-input kind with two inputs validated: %v", err)
	}
}

// TestCheckUDFs: a missing role is the table's error naming the operator and
// the role, a declarative stand-in satisfies its role, and checking a
// well-formed operator allocates nothing.
func TestCheckUDFs(t *testing.T) {
	key := func(q any) any { return q }
	cases := []struct {
		op   *Operator
		want string // "" = well-formed
	}{
		{&Operator{Kind: KindMap, Label: "m"}, "Map(m)#0 lacks a map UDF"},
		{&Operator{Kind: KindFilter}, "lacks a pred UDF or a Where predicate"},
		{&Operator{Kind: KindFilter, Params: Params{Where: &Predicate{Col: 0, Op: PredGt, Value: int64(1)}}}, ""},
		{&Operator{Kind: KindReduceBy, UDF: UDFs{Key: key}}, "lacks a reduce UDF or a ReduceExpr"},
		{&Operator{Kind: KindReduceBy, UDF: UDFs{ReduceExpr: &ReduceExpr{GroupCols: []int{0}}}}, ""},
		{&Operator{Kind: KindIEJoin, UDF: UDFs{LeftNums: func(any) (float64, float64) { return 0, 0 }}}, "lacks a rightnums UDF"},
		{&Operator{Kind: KindJoin, UDF: UDFs{KeyRight: key}}, "lacks a key UDF"},
		{&Operator{Kind: KindSort}, ""},
	}
	for _, c := range cases {
		err := c.op.CheckUDFs()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: CheckUDFs = %v, want %q", c.op, err, c.want)
		}
	}
	rb := &Operator{Kind: KindReduceBy, UDF: UDFs{Key: key, Reduce: func(a, _ any) any { return a }}}
	if n := testing.AllocsPerRun(100, func() { _ = rb.CheckUDFs() }); n != 0 {
		t.Errorf("checking a well-formed operator allocates %v times", n)
	}
}

// TestValidateChecksUDFsInLoopBodies: a body operator lacking its UDF fails
// the enclosing plan's validation with the table's error.
func TestValidateChecksUDFsInLoopBodies(t *testing.T) {
	p := NewPlan("looped")
	src := p.NewOperator(KindCollectionSource, "init")
	src.Params.Collection = []any{0.0}
	loop := p.NewOperator(KindRepeat, "iter")
	loop.Params.Iterations = 2
	p.Chain(src, loop, p.NewOperator(KindCollectionSink, ""))
	body := NewPlan("body")
	in := body.NewOperator(KindCollectionSource, "loopvar")
	step := body.NewOperator(KindMap, "step")
	body.Connect(in, step, 0)
	body.LoopInput, body.LoopOutput = in, step
	loop.Body = body
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "Map(step)#2 lacks a map UDF") {
		t.Fatalf("Validate = %v, want the body map's missing UDF", err)
	}
}
