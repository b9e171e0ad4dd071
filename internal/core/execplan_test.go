package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// fakePipeline builds src -> m1 -> m2 -> sink with src broadcast to m2.
func fakePipeline() (p *Plan, src, m1, m2, sink *Operator) {
	p = NewPlan("own-alternatives")
	src = p.NewOperator(KindCollectionSource, "src")
	m1 = p.NewOperator(KindMap, "m1")
	m2 = p.NewOperator(KindMap, "m2")
	sink = p.NewOperator(KindCollectionSink, "out")
	p.Chain(src, m1, m2, sink)
	p.Broadcast(src, m2)
	return
}

func place(platform string, steps ...ExecOpTemplate) *Assignment {
	return &Assignment{Alt: Alternative{Platform: platform, Steps: steps}}
}

// Every placed operator answers for itself: its platform and channels are
// those of its own alternative, whatever its neighbours were placed on.
func TestExecPlanChannelsComeFromTheOwnAlternative(t *testing.T) {
	p, src, m1, m2, sink := fakePipeline()
	ep := &ExecPlan{Plan: p, Assignments: map[*Operator]*Assignment{
		src: place("fake", ExecOpTemplate{Name: "fake.src", Kind: KindCollectionSource, Out: "fakechan"}),
		m1:  place("fake", ExecOpTemplate{Name: "fake.map", Kind: KindMap, In: []string{"fakechan"}, Out: "fakechan"}),
		m2: place("other",
			ExecOpTemplate{Name: "other.prep", Kind: KindMap, In: []string{"fakechan", "collection"}, Out: "collection"},
			ExecOpTemplate{Name: "other.map", Kind: KindMap, In: []string{"collection"}, Out: "otherchan"}),
	}}

	for _, c := range []struct {
		op       *Operator
		platform string
		in       []string
		out      string
	}{
		{src, "fake", []string{"collection"}, "fakechan"}, // no declared input: a driver collection
		{m1, "fake", []string{"fakechan"}, "fakechan"},
		{m2, "other", []string{"fakechan", "collection"}, "otherchan"}, // first step's inputs, last step's output
		{sink, "", []string{"collection"}, ""},                         // not placed
	} {
		if got := ep.PlatformOf(c.op); got != c.platform {
			t.Errorf("PlatformOf(%s) = %q, want %q", c.op, got, c.platform)
		}
		if got := ep.InChannels(c.op); !reflect.DeepEqual(got, c.in) {
			t.Errorf("InChannels(%s) = %v, want %v", c.op, got, c.in)
		}
		if got := ep.OutChannel(c.op); got != c.out {
			t.Errorf("OutChannel(%s) = %q, want %q", c.op, got, c.out)
		}
	}
	if got := ep.Platforms(); !reflect.DeepEqual(got, []string{"fake", "other"}) {
		t.Errorf("Platforms = %v", got)
	}

	// A loop's output is a driver collection the executor evaluates, placed
	// or not.
	lp := NewPlan("loop")
	loop := lp.NewOperator(KindRepeat, "")
	if got := (&ExecPlan{Plan: lp}).OutChannel(loop); got != "collection" {
		t.Errorf("OutChannel(loop) = %q, want collection", got)
	}
}

// Reads visits every read the plan makes, once, in edge order: edges between
// operators on one platform included, a broadcast as a driver collection.
func TestExecPlanReadsEveryEdge(t *testing.T) {
	p, src, m1, m2, sink := fakePipeline()
	mapAlt := place("fake", ExecOpTemplate{Name: "fake.map", Kind: KindMap, In: []string{"fakechan"}, Out: "fakechan"})
	ep := &ExecPlan{Plan: p, Assignments: map[*Operator]*Assignment{
		src: place("fake", ExecOpTemplate{Name: "fake.src", Kind: KindCollectionSource, Out: "fakechan"}),
		m1:  mapAlt,
		m2:  mapAlt,
	}}

	type read struct {
		producer *Operator
		accepts  []string
		reader   string
	}
	var got []read
	if err := ep.Reads(func(producer *Operator, accepts []string, reader string) error {
		got = append(got, read{producer, accepts, reader})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []read{
		{src, []string{"fakechan"}, m1.String()},
		{m1, []string{"fakechan"}, m2.String()},
		{m2, []string{"collection"}, sink.String()},
		{src, []string{"collection"}, m2.String()},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reads = %v, want %v", got, want)
	}

	// The first error stops the walk and is returned as is.
	stop := errors.New("stop")
	calls := 0
	err := ep.Reads(func(*Operator, []string, string) error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("Reads = %v after %d calls, want stop after 2", err, calls)
	}
}

// Validate accepts a plan only when every reader is served by its
// producer's own out-channel or a movement tree rooted there.
func TestExecPlanValidateServesEveryReader(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&fakeDriver{name: "fake"}); err != nil {
		t.Fatal(err)
	}
	toFake := (&fakeDriver{}).Conversions()[0] // collection -> fakechan
	p := NewPlan("validate")
	src := p.NewOperator(KindCollectionSource, "src")
	m := p.NewOperator(KindMap, "m")
	sink := p.NewOperator(KindCollectionSink, "out")
	p.Chain(src, m, sink)
	ep := func(platform string, mv *MovementPlan) *ExecPlan {
		e := &ExecPlan{Plan: p, Assignments: map[*Operator]*Assignment{
			src:  place(platform, ExecOpTemplate{Name: "fake.src", Kind: KindCollectionSource, Out: "collection"}),
			m:    place("fake", ExecOpTemplate{Name: "fake.map", Kind: KindMap, In: []string{"fakechan"}, Out: "fakechan"}),
			sink: place("fake", ExecOpTemplate{Name: "fake.sink", Kind: KindCollectionSink, In: []string{"fakechan"}}),
		}, Movements: map[*Operator]*MovementPlan{}}
		if mv != nil {
			e.Movements[src] = mv
		}
		return e
	}

	for _, c := range []struct {
		name string
		ep   *ExecPlan
		want string // "" = valid
	}{
		{"no movement", ep("fake", nil), m.String() + " reads " + src.String()},
		{"converted", ep("fake", &MovementPlan{Producer: src, Tree: &ConversionTree{Root: "collection", Edges: []*Conversion{toFake}}}), ""},
		{"wrong root", ep("fake", &MovementPlan{Producer: src, Tree: &ConversionTree{Root: "fakechan"}}), `is rooted at "fakechan"`},
		{"unknown platform", ep("nowhere", &MovementPlan{Producer: src, Tree: &ConversionTree{Root: "collection", Edges: []*Conversion{toFake}}}), src.String()},
	} {
		err := c.ep.Validate(reg)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
