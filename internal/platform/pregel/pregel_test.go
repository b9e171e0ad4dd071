package pregel

import (
	"math"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/platformtest"
)

func fastDriver() *Driver {
	return NewWithConfig(Config{Workers: 4})
}

func ringEdges(n int64) []core.Edge {
	var out []core.Edge
	for v := int64(0); v < n; v++ {
		out = append(out, core.Edge{Src: v, Dst: (v + 1) % n})
	}
	return out
}

func TestRunPageRankRing(t *testing.T) {
	ranks, steps, err := Run(PageRankProgram{Iterations: 20, Damping: 0.85}, ringEdges(8), 4, driverutil.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 8 {
		t.Fatalf("vertices = %d", len(ranks))
	}
	for v, r := range ranks {
		if math.Abs(r-0.125) > 1e-6 {
			t.Fatalf("vertex %d rank %f, want 0.125", v, r)
		}
	}
	if steps < 20 {
		t.Fatalf("supersteps = %d, want >= 20", steps)
	}
}

func TestRunTerminatesOnAllHalted(t *testing.T) {
	// With MaxSupersteps large, the run must still stop shortly after every
	// vertex votes to halt (iterations+2 supersteps for PageRank).
	prog := PageRankProgram{Iterations: 3, Damping: 0.85}
	_, steps, err := Run(prog, ringEdges(4), 2, driverutil.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if steps > 4+1 {
		t.Fatalf("ran %d supersteps for a 3-iteration program", steps)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	ranks, steps, err := Run(PageRankProgram{Iterations: 5}, nil, 4, driverutil.Latency{})
	if err != nil || len(ranks) != 0 || steps != 0 {
		t.Fatalf("empty run: %v %d %v", ranks, steps, err)
	}
}

func TestMessageCombinerEquivalence(t *testing.T) {
	// Results must be identical with 1 worker and many workers (combiner
	// and routing must not change semantics).
	edges := []core.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 0, Dst: 3}}
	one, _, _ := Run(PageRankProgram{Iterations: 15, Damping: 0.85}, edges, 1, driverutil.Latency{})
	many, _, _ := Run(PageRankProgram{Iterations: 15, Damping: 0.85}, edges, 8, driverutil.Latency{})
	if len(one) != len(many) {
		t.Fatalf("vertex counts differ: %d vs %d", len(one), len(many))
	}
	for v, r := range one {
		if math.Abs(r-many[v]) > 1e-9 {
			t.Fatalf("vertex %d: 1-worker %f vs 8-worker %f", v, r, many[v])
		}
	}
}

func TestAgreementWithGraphmem(t *testing.T) {
	// Two independent implementations of PageRank must agree closely.
	edges := []core.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 0}, {Src: 0, Dst: 3}, {Src: 2, Dst: 3},
	}
	pregelRanks, _, err := Run(PageRankProgram{Iterations: 30, Damping: 0.85}, edges, 4, driverutil.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	quanta := make([]any, len(edges))
	for i, e := range edges {
		quanta[i] = e
	}
	g, err := graphmem.BuildGraph(quanta)
	if err != nil {
		t.Fatal(err)
	}
	gm := g.PageRank(30, 0.85)
	// graphmem returns dense-indexed ranks in first-seen order:
	// 0,1,2,3 appear in that order in the edge list.
	for v := int64(0); v < 4; v++ {
		if math.Abs(pregelRanks[v]-gm[v]) > 1e-6 {
			t.Fatalf("vertex %d: pregel %f vs graphmem %f", v, pregelRanks[v], gm[v])
		}
	}
}

func TestDriverPageRankOp(t *testing.T) {
	d := fastDriver()
	quanta := make([]any, 0)
	for _, e := range ringEdges(5) {
		quanta = append(quanta, e)
	}
	op := &core.Operator{Kind: core.KindPageRank, Params: core.Params{Iterations: 15}}
	got := platformtest.RunOp(t, d, op, platformtest.CollectionChannel(quanta...))
	if len(got) != 5 {
		t.Fatalf("vertices = %d", len(got))
	}
	var sum float64
	for _, q := range got {
		sum += q.(core.KV).Value.(float64)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank mass = %f", sum)
	}
}

func TestDriverRejectsOtherKinds(t *testing.T) {
	d := fastDriver()
	op := &core.Operator{Kind: core.KindFilter, UDF: core.UDFs{Pred: func(any) bool { return true }}}
	if _, _, err := platformtest.RunOpErr(d, op, platformtest.CollectionChannel(int64(1))); err == nil {
		t.Fatal("pregel must reject non-graph operators")
	}
}

// TestStartupCostTransitions: pregel is quoted its context boot until a
// stage has paid it, then nothing; its supersteps are charged, one each, but
// priced through its unit costs, never quoted as start-up.
func TestStartupCostTransitions(t *testing.T) {
	d := NewWithConfig(Config{Workers: 2, Latency: driverutil.Latency{ContextMs: 25, BarrierMs: 5}})
	if boot, stage := d.StartupCostMs(); boot != 25 || stage != 0 {
		t.Fatalf("pre-boot = %v + %v, want 25 + 0", boot, stage)
	}
	op := &core.Operator{Kind: core.KindPageRank, Params: core.Params{Iterations: 1}}
	start := time.Now()
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel(core.Edge{Src: 1, Dst: 2}))
	if paid := time.Since(start); paid < (25+2*5)*time.Millisecond {
		t.Fatalf("first stage of two supersteps paid %v, want at least 35 ms", paid)
	}
	if boot, stage := d.StartupCostMs(); boot != 0 || stage != 0 {
		t.Fatalf("post-boot = %v + %v, want 0 + 0", boot, stage)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} in a chain and {10,11} in a pair, symmetrized.
	var edges []core.Edge
	add := func(a, b int64) {
		edges = append(edges, core.Edge{Src: a, Dst: b}, core.Edge{Src: b, Dst: a})
	}
	add(0, 1)
	add(1, 2)
	add(10, 11)
	labels, steps, err := Run(ConnectedComponentsProgram{}, edges, 4, driverutil.Latency{})
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Fatalf("component A labels: %v", labels)
	}
	if labels[10] != 10 || labels[11] != 10 {
		t.Fatalf("component B labels: %v", labels)
	}
	// Label propagation converges and halts early (well under the bound).
	if steps >= 64 {
		t.Fatalf("did not converge early: %d supersteps", steps)
	}
}

func TestConnectedComponentsSingleVsManyWorkers(t *testing.T) {
	var edges []core.Edge
	for v := int64(0); v < 40; v++ {
		edges = append(edges, core.Edge{Src: v, Dst: (v + 1) % 40}, core.Edge{Src: (v + 1) % 40, Dst: v})
	}
	one, _, _ := Run(ConnectedComponentsProgram{}, edges, 1, driverutil.Latency{})
	many, _, _ := Run(ConnectedComponentsProgram{}, edges, 8, driverutil.Latency{})
	for v, l := range one {
		if many[v] != l {
			t.Fatalf("vertex %d: %v vs %v", v, l, many[v])
		}
		if l != 0 {
			t.Fatalf("ring should collapse to label 0, got %v", l)
		}
	}
}
