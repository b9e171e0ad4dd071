package rheem_test

import (
	"fmt"
	"strings"
	"testing"

	"rheem"
	"rheem/internal/datagen"
	"rheem/internal/tasks"
)

// TestFastSimulationSGD: with start-up costs at zero the optimizer spreads
// SGD's loop over several engines, so data crosses the loop boundary between
// platforms — the cached points into the body's sampler, the weights out of
// the body into the next round. That movement is planned (it shows in the
// explained plan) and the plan runs at every size.
func TestFastSimulationSGD(t *testing.T) {
	const dim = 10
	for _, points := range []int{200, 2_000, 20_000} {
		for _, rounds := range []int{6, 40} {
			ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, DFSDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.DFS.WriteLines("points.txt", datagen.PointLines(datagen.Points(points, dim, 1))); err != nil {
				t.Fatal(err)
			}
			b, final, err := tasks.SGD(ctx, "dfs://points.txt", tasks.SGDOptions{Iterations: rounds, BatchSize: 50, Dim: dim, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sink := final.CollectSink()
			name := fmt.Sprintf("%d points, %d rounds", points, rounds)
			res, err := ctx.Execute(b.Plan())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out, err := res.CollectFrom(sink)
			if err != nil || len(out) != 1 || len(out[0].([]float64)) != dim {
				t.Fatalf("%s: model %v, %v", name, out, err)
			}
			ep := res.Plan()
			for _, loop := range ep.Plan.Operators() {
				for _, ref := range loop.OuterRefs() {
					from, to := ep.PlatformOf(ref.OuterRef), ep.LoopBodies[loop].PlatformOf(ref)
					if mv := ep.Movements[ref.OuterRef]; from != to && (mv == nil || !strings.Contains(ep.String(), "movement: "+mv.Tree.Edges[0].Name)) {
						t.Fatalf("%s: %s on %s is read by the body on %s and the plan shows no movement for it:\n%s", name, ref.OuterRef, from, to, ep)
					}
				}
			}
		}
	}
}

// TestSGDModelBitIdentical: the iterative_sgd benchmark's job — 2 000
// ten-dimensional points on dfs://points.txt, 40 rounds of batch 50, paper
// latencies, every operator on streams — trains the pinned model bit for bit:
// reading the text source in input splits must not drop, reorder or alter a
// line.
func TestSGDModelBitIdentical(t *testing.T) {
	const seed = 20180701
	const want = "[-5022268089812161p-53 -8578765056522764p-53 7797652089219086p-53 5725917816368187p-52 5680201608774708p-55 -7115747137989566p-56 -4795870955385524p-55 6819659964529704p-54 5568751459330973p-53 -5754458483681118p-52]"
	ctx, err := rheem.NewContext(rheem.Config{DFSDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DFS.WriteLines("points.txt", datagen.PointLines(datagen.Points(2000, 10, seed))); err != nil {
		t.Fatal(err)
	}
	b, final, err := tasks.SGD(ctx, "dfs://points.txt", tasks.SGDOptions{Iterations: 40, BatchSize: 50, Dim: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sink := final.CollectSink()
	res, err := ctx.Execute(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.CollectFrom(sink)
	if err != nil || len(out) != 1 {
		t.Fatalf("model %v, %v", out, err)
	}
	if got := fmt.Sprintf("%b", out[0].([]float64)); got != want {
		t.Fatalf("weights %s, want %s", got, want)
	}
	if ep := res.Plan(); ep.PlatformOf(sink) != "streams" {
		t.Fatalf("the model was trained on %s, want streams:\n%s", ep.PlatformOf(sink), ep)
	}
}
