package core

import (
	"testing"
)

func streamsMapTemplate() ExecOpTemplate {
	return ExecOpTemplate{Name: "streams.map", Kind: KindMap, In: []string{"collection"}, Out: "collection"}
}

func sparkMapTemplate() ExecOpTemplate {
	return ExecOpTemplate{Name: "spark.map", Kind: KindMap, In: []string{"rdd"}, Out: "rdd"}
}

func newTestMappings() *MappingRegistry {
	r := NewMappingRegistry()
	r.Register(KindMap, Alternative{Platform: "streams", Steps: []ExecOpTemplate{streamsMapTemplate()}})
	r.Register(KindMap, Alternative{Platform: "spark", Steps: []ExecOpTemplate{sparkMapTemplate()}})
	// 1-to-n: global Reduce on streams = group-all + fold.
	r.Register(KindReduce, Alternative{Platform: "streams", Steps: []ExecOpTemplate{
		{Name: "streams.group-all", Kind: KindReduce, In: []string{"collection"}, Out: "collection"},
		{Name: "streams.fold", Kind: KindReduce, In: []string{"collection"}, Out: "collection"},
	}})
	return r
}

func TestAlternativesDirect(t *testing.T) {
	r := newTestMappings()
	op := &Operator{Kind: KindMap}
	alts := r.Alternatives(op)
	if len(alts) != 2 {
		t.Fatalf("alternatives = %v", alts)
	}
	// A 1-to-n alternative keeps its steps in order.
	red := r.Alternatives(&Operator{Kind: KindReduce})
	if len(red) != 1 || len(red[0].Steps) != 2 {
		t.Fatalf("reduce alternatives = %v", red)
	}
	if red[0].InChannels()[0] != "collection" || red[0].OutChannel() != "collection" {
		t.Errorf("channel endpoints = %v -> %v", red[0].InChannels(), red[0].OutChannel())
	}
}

func TestAlternativesHonourPlatformPin(t *testing.T) {
	r := newTestMappings()
	op := &Operator{Kind: KindMap, TargetPlatform: "spark"}
	alts := r.Alternatives(op)
	if len(alts) != 1 || alts[0].Platform != "spark" {
		t.Fatalf("pinned alternatives = %v", alts)
	}
	none := r.Alternatives(&Operator{Kind: KindMap, TargetPlatform: "flink"})
	if len(none) != 0 {
		t.Fatalf("expected no alternatives for unregistered pin, got %v", none)
	}
}

func TestMappingValidate(t *testing.T) {
	r := newTestMappings()
	p := NewPlan("v")
	src := p.NewOperator(KindCollectionSource, "")
	src.Params.Collection = []any{1}
	m := p.NewOperator(KindMap, "")
	sink := p.NewOperator(KindCollectionSink, "")
	p.Chain(src, m, sink)
	// Source and sink kinds unregistered: Validate must complain.
	if err := r.Validate(p); err == nil {
		t.Fatal("expected validation error for unimplemented kinds")
	}
	r.Register(KindCollectionSource, Alternative{Platform: "streams", Steps: []ExecOpTemplate{{Name: "streams.src", Out: "collection"}}})
	r.Register(KindCollectionSink, Alternative{Platform: "streams", Steps: []ExecOpTemplate{{Name: "streams.sink", In: []string{"collection"}}}})
	if err := r.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestMappingPlatforms(t *testing.T) {
	r := newTestMappings()
	ps := r.Platforms()
	if len(ps) != 2 || ps[0] != "spark" || ps[1] != "streams" {
		t.Fatalf("Platforms = %v", ps)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Driver("nope"); err == nil {
		t.Fatal("expected error for unknown driver")
	}
	d := &fakeDriver{name: "fake"}
	if err := reg.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(d); err == nil {
		t.Fatal("expected duplicate registration error")
	}
	got, err := reg.Driver("fake")
	if err != nil || got != d {
		t.Fatalf("Driver = %v, %v", got, err)
	}
	if boot, stage := reg.StartupCostMs("fake"); boot != 12.5 || stage != 2 {
		t.Errorf("StartupCostMs = %v, %v; want 12.5, 2", boot, stage)
	}
	if boot, stage := reg.StartupCostMs("unknown"); boot != 0 || stage != 0 {
		t.Errorf("unknown platform startup cost %v, %v; want 0, 0", boot, stage)
	}
	// The fake channel and conversion joined the graph.
	if _, ok := reg.Graph.Channel("fakechan"); !ok {
		t.Error("driver channel not registered in conversion graph")
	}
	if p, err := reg.Graph.FindPath("collection", "fakechan", 10); err != nil || len(p.Steps) != 1 {
		t.Errorf("driver conversion not usable: %v, %v", p, err)
	}
}

type fakeDriver struct{ name string }

func (d *fakeDriver) Name() string { return d.name }
func (d *fakeDriver) Execute(*Stage, *Inputs) (map[*Operator]*Channel, *StageStats, error) {
	return nil, nil, nil
}
func (d *fakeDriver) ChannelDescriptors() []ChannelDescriptor {
	return []ChannelDescriptor{{Name: "fakechan", Platform: d.name}}
}
func (d *fakeDriver) Conversions() []*Conversion {
	return []*Conversion{{Name: "to-fake", From: "collection", To: "fakechan", FixedCostMs: 1}}
}
func (d *fakeDriver) RegisterMappings(r *MappingRegistry) {
	r.Register(KindMap, Alternative{Platform: d.name, Steps: []ExecOpTemplate{{Name: "fake.map", In: []string{"fakechan"}, Out: "fakechan"}}})
}
func (d *fakeDriver) StartupCostMs() (float64, float64) { return 12.5, 2 }
