package core

import (
	"math"
	"testing"
	"testing/quick"
)

// buildTestGraph wires a small conversion graph resembling the real one:
//
//	relation --scan--> collection <--collect/parallelize--> rdd
//	collection <--fetch/save--> file --load--> rdd
//	collection --to-graph--> graph
func buildTestGraph() *ConversionGraph {
	g := NewConversionGraph()
	for _, d := range []ChannelDescriptor{
		{Name: "collection", Reusable: true, AtRest: true},
		{Name: "file", Reusable: true, AtRest: true},
		{Name: "rdd", Platform: "spark", Reusable: true},
		{Name: "relation", Platform: "relstore", Reusable: true, AtRest: true},
		{Name: "graph", Platform: "graphmem", Reusable: true},
	} {
		g.AddChannel(d)
	}
	add := func(name, from, to string, fixed, per float64) {
		if err := g.AddConversion(&Conversion{Name: name, From: from, To: to, FixedCostMs: fixed, PerQuantumMs: per}); err != nil {
			panic(err)
		}
	}
	add("scan", "relation", "collection", 5, 0.001)
	add("parallelize", "collection", "rdd", 20, 0.0005)
	add("collect", "rdd", "collection", 20, 0.0005)
	add("save", "collection", "file", 2, 0.002)
	add("fetch", "file", "collection", 2, 0.002)
	add("load", "file", "rdd", 25, 0.0008)
	add("to-graph", "collection", "graph", 1, 0.001)
	return g
}

func TestFindPathDirect(t *testing.T) {
	g := buildTestGraph()
	p, err := g.FindPath("relation", "collection", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].Name != "scan" {
		t.Fatalf("path = %v", p.Steps)
	}
	if want := 5 + 0.001*1000; math.Abs(p.CostMs-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", p.CostMs, want)
	}
}

func TestFindPathMultiHop(t *testing.T) {
	g := buildTestGraph()
	p, err := g.FindPath("relation", "rdd", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 || p.Steps[0].Name != "scan" || p.Steps[1].Name != "parallelize" {
		t.Fatalf("path = %v", p.Steps)
	}
}

func TestFindPathIdentityAndUnreachable(t *testing.T) {
	g := buildTestGraph()
	p, err := g.FindPath("rdd", "rdd", 10)
	if err != nil || len(p.Steps) != 0 || p.CostMs != 0 {
		t.Fatalf("identity path = %v, %v", p, err)
	}
	// graph has no outgoing conversions.
	if _, err := g.FindPath("graph", "collection", 10); err == nil {
		t.Fatal("expected unreachable error")
	}
}

// TestFindPathTiesAndAllocations: between two equally cheap routes the one
// through the channel registered first wins, on every call, and a search
// allocates only the path it returns.
func TestFindPathTiesAndAllocations(t *testing.T) {
	g := NewConversionGraph()
	for _, name := range []string{"src", "left", "right", "dst"} {
		g.AddChannel(ChannelDescriptor{Name: name})
	}
	for _, cv := range []*Conversion{
		{Name: "src-right", From: "src", To: "right", FixedCostMs: 1},
		{Name: "src-left", From: "src", To: "left", FixedCostMs: 1},
		{Name: "right-dst", From: "right", To: "dst", FixedCostMs: 1},
		{Name: "left-dst", From: "left", To: "dst", FixedCostMs: 1},
	} {
		if err := g.AddConversion(cv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		p, err := g.FindPath("src", "dst", 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != 2 || p.Steps[0].Name != "src-left" || p.Steps[1].Name != "left-dst" || p.CostMs != 2 {
			t.Fatalf("call %d: path %v cost %g, want src-left, left-dst at 2", i, p.Steps, p.CostMs)
		}
	}
	if _, err := g.FindPath("src", "nowhere", 100); err == nil {
		t.Error("a path to an unregistered channel")
	}
	big := buildTestGraph()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := big.FindPath("relation", "rdd", 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("FindPath allocates %v times per call, want the path struct and its steps only", allocs)
	}
}

func TestFindPathPicksCheaper(t *testing.T) {
	g := buildTestGraph()
	// For large cardinality, file->rdd direct load beats file->collection->rdd
	// (fixed 25 + 0.0008n vs 2+20 + 0.0025n): crossover around n=1765.
	pBig, err := g.FindPath("file", "rdd", 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pBig.Steps) != 1 || pBig.Steps[0].Name != "load" {
		t.Fatalf("big path = %v", pBig.Steps)
	}
	pSmall, err := g.FindPath("file", "rdd", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pSmall.Steps) != 2 {
		t.Fatalf("small path should go via collection, got %v", pSmall.Steps)
	}
}

func TestFindTreeSingleTarget(t *testing.T) {
	g := buildTestGraph()
	tree, err := g.FindTree("relation", []string{"rdd"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := g.FindPath("relation", "rdd", 1000)
	if math.Abs(tree.CostMs-path.CostMs) > 1e-9 {
		t.Errorf("tree cost %v != path cost %v", tree.CostMs, path.CostMs)
	}
	if len(tree.Edges) != 2 {
		t.Errorf("tree edges = %v", tree.Edges)
	}
}

func TestFindTreeSharesPrefix(t *testing.T) {
	g := buildTestGraph()
	// Serving both rdd and graph from relation must share the relation->
	// collection scan instead of paying for it twice.
	tree, err := g.FindTree("relation", []string{"rdd", "graph"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	scanCount := 0
	for _, e := range tree.Edges {
		if e.Name == "scan" {
			scanCount++
		}
	}
	if scanCount != 1 {
		t.Fatalf("scan appears %d times; prefix not shared: %v", scanCount, tree.Edges)
	}
	pRdd, _ := g.FindPath("relation", "rdd", 1000)
	pGraph, _ := g.FindPath("relation", "graph", 1000)
	scan, _ := g.FindPath("relation", "collection", 1000)
	wantShared := pRdd.CostMs + pGraph.CostMs - scan.CostMs
	if math.Abs(tree.CostMs-wantShared) > 1e-9 {
		t.Errorf("tree cost = %v, want %v (shared prefix)", tree.CostMs, wantShared)
	}
}

func TestFindTreeTargetEqualsRoot(t *testing.T) {
	g := buildTestGraph()
	tree, err := g.FindTree("collection", []string{"collection"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Edges) != 0 || tree.CostMs != 0 {
		t.Fatalf("trivial tree = %+v", tree)
	}
}

func TestFindTreeUnreachable(t *testing.T) {
	g := buildTestGraph()
	if _, err := g.FindTree("graph", []string{"file"}, 10); err == nil {
		t.Fatal("expected unreachable tree error")
	}
}

func TestFindTreeEdgesOrdered(t *testing.T) {
	g := buildTestGraph()
	tree, err := g.FindTree("relation", []string{"rdd", "graph", "file"}, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge's source channel must be the root or produced by an earlier
	// edge: the executor applies conversions in order.
	produced := map[string]bool{tree.Root: true}
	for _, e := range tree.Edges {
		if !produced[e.From] {
			t.Fatalf("edge %s consumes unproduced channel %s (order: %v)", e.Name, e.From, tree.Edges)
		}
		produced[e.To] = true
	}
	for _, target := range []string{"rdd", "graph", "file"} {
		if !produced[target] {
			t.Errorf("target %s not produced", target)
		}
	}
}

func TestFindTreeCostNeverExceedsPathSum(t *testing.T) {
	g := buildTestGraph()
	targets := [][]string{
		{"rdd"}, {"graph"}, {"rdd", "graph"}, {"rdd", "file"}, {"rdd", "graph", "file"},
	}
	f := func(cardSeed uint16, pick uint8) bool {
		card := float64(cardSeed)
		ts := targets[int(pick)%len(targets)]
		tree, err := g.FindTree("relation", ts, card)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, target := range ts {
			p, err := g.FindPath("relation", target, card)
			if err != nil {
				return false
			}
			sum += p.CostMs
		}
		return tree.CostMs <= sum+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestChannelConsume(t *testing.T) {
	reusable := NewChannel(ChannelDescriptor{Name: "c", Reusable: true}, nil, 1)
	if err := reusable.Consume(); err != nil {
		t.Fatal(err)
	}
	if err := reusable.Consume(); err != nil {
		t.Fatal("reusable channel must allow repeated consumption")
	}
	once := NewChannel(ChannelDescriptor{Name: "s"}, nil, 1)
	if err := once.Consume(); err != nil {
		t.Fatal(err)
	}
	if err := once.Consume(); err == nil {
		t.Fatal("single-use channel consumed twice without error")
	}
}

func TestAddConversionUnknownChannel(t *testing.T) {
	g := NewConversionGraph()
	g.AddChannel(ChannelDescriptor{Name: "a"})
	if err := g.AddConversion(&Conversion{Name: "x", From: "a", To: "b"}); err == nil {
		t.Fatal("expected unknown-channel error")
	}
	if err := g.AddConversion(&Conversion{Name: "x", From: "z", To: "a"}); err == nil {
		t.Fatal("expected unknown-channel error")
	}
}

func TestGraphChannelsSorted(t *testing.T) {
	g := buildTestGraph()
	chs := g.Channels()
	for i := 1; i < len(chs); i++ {
		if chs[i-1].Name >= chs[i].Name {
			t.Fatalf("channels not sorted: %v", chs)
		}
	}
	if d, ok := g.Channel("rdd"); !ok || d.Platform != "spark" {
		t.Errorf("Channel lookup = %+v, %v", d, ok)
	}
}
