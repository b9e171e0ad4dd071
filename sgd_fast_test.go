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
