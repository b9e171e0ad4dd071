package ml4all

import (
	"slices"
	"testing"

	"rheem"
	"rheem/internal/datagen"
)

func fastCtx(t *testing.T) *rheem.Context {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	return ctx
}

func toLabeled(points []datagen.Point) []LabeledPoint {
	out := make([]LabeledPoint, len(points))
	for i, p := range points {
		out[i] = LabeledPoint{Label: p.Label, Features: p.Features}
	}
	return out
}

func asQuanta(points []LabeledPoint) []any {
	out := make([]any, len(points))
	for i, p := range points {
		out[i] = p
	}
	return out
}

func TestSGDTrainsSeparableData(t *testing.T) {
	ctx := fastCtx(t)
	const dim = 5
	points := toLabeled(datagen.Points(1000, dim, 42))

	raw := ctx.NewPlan("train").LoadCollection("points", asQuanta(points))
	model, err := Train(ctx, raw, SGD{LearningRate: 0.5}, Options{
		Iterations: 60, SampleSize: 50, Seed: 7, Dim: dim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != dim {
		t.Fatalf("model dim = %d", len(model))
	}
	acc := Accuracy(points, model)
	if acc < 0.8 {
		t.Fatalf("training accuracy %.3f < 0.8", acc)
	}
}

func TestSGDFullBatch(t *testing.T) {
	ctx := fastCtx(t)
	const dim = 3
	points := toLabeled(datagen.Points(300, dim, 9))
	raw := ctx.NewPlan("train-full").LoadCollection("points", asQuanta(points))
	model, err := Train(ctx, raw, SGD{LearningRate: 0.5}, Options{
		Iterations: 30, SampleSize: 0, Dim: dim, // full batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(points, model); acc < 0.8 {
		t.Fatalf("full-batch accuracy %.3f", acc)
	}
}

func TestSGDTransformParsesCSV(t *testing.T) {
	p := SGD{}.Transform("1,-0.5,2.25").(LabeledPoint)
	if p.Label != 1 || len(p.Features) != 2 || p.Features[1] != 2.25 {
		t.Fatalf("parsed = %+v", p)
	}
	// Pass-through for already-parsed points.
	same := SGD{}.Transform(p).(LabeledPoint)
	if same.Label != p.Label {
		t.Fatal("pass-through broken")
	}
}

func TestSGDFromTextFile(t *testing.T) {
	ctx := fastCtx(t)
	const dim = 4
	points := datagen.Points(400, dim, 5)
	if err := ctx.DFS.WriteLines("train.csv", datagen.PointLines(points)); err != nil {
		t.Fatal(err)
	}
	raw := ctx.NewPlan("train-file").ReadTextFile("dfs://train.csv")
	model, err := Train(ctx, raw, SGD{LearningRate: 0.5}, Options{
		Iterations: 40, SampleSize: 40, Dim: dim, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(toLabeled(points), model); acc < 0.75 {
		t.Fatalf("accuracy from file %.3f", acc)
	}
}

func TestEarlyStoppingViaConverge(t *testing.T) {
	ctx := fastCtx(t)
	const dim = 3
	points := toLabeled(datagen.Points(200, dim, 21))
	raw := ctx.NewPlan("train-conv").LoadCollection("points", asQuanta(points))
	// A huge tolerance stops immediately after the first round.
	model, err := Train(ctx, raw, SGD{LearningRate: 0.1, Tolerance: 100}, Options{
		Iterations: 1000, SampleSize: 20, Dim: dim,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(model) != dim {
		t.Fatalf("model = %v", model)
	}
}

func TestBuildPlanValidation(t *testing.T) {
	ctx := fastCtx(t)
	raw := ctx.NewPlan("bad").LoadCollection("points", []any{})
	if _, err := BuildPlan(ctx, "x", raw, SGD{}, Options{Iterations: 0, Dim: 3}); err == nil {
		t.Fatal("zero iterations must fail")
	}
	raw2 := ctx.NewPlan("bad2").LoadCollection("points", []any{})
	if _, err := BuildPlan(ctx, "x", raw2, SGD{}, Options{Iterations: 5, Dim: 0}); err == nil {
		t.Fatal("zero dim must fail")
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(nil, []float64{1}) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	pts := []LabeledPoint{{Label: 1, Features: []float64{1}}, {Label: -1, Features: []float64{-1}}}
	if acc := Accuracy(pts, []float64{2}); acc != 1 {
		t.Fatalf("perfect model accuracy = %v", acc)
	}
}

// TestSumReduceLeavesInputsUnchanged: the "sum" reduce folds into a gradient
// of its own. After a run on each engine, the sum is right and every input
// quantum's gradient still holds what it held before the run.
func TestSumReduceLeavesInputsUnchanged(t *testing.T) {
	for _, platform := range []string{"streams", "spark", "flink"} {
		ctx := fastCtx(t)
		in := make([]any, 40)
		before := make([][]float64, len(in))
		want := make([]float64, 3)
		for i := range in {
			g := []float64{float64(i), 1, -float64(i) / 2}
			in[i] = gradCount{grad: g, n: 1}
			before[i] = slices.Clone(g)
			for j := range want {
				want[j] += g[j]
			}
		}
		b := ctx.NewPlan("sum-" + platform)
		sink := b.LoadCollection("grads", in).Reduce("sum", sumGrads).CollectSink()
		plan := b.Plan()
		for _, op := range plan.Operators() {
			op.TargetPlatform = platform
		}
		res, err := ctx.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		out, err := res.CollectFrom(sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("%s: %d sums, want 1", platform, len(out))
		}
		if grad, n := gradOf(out[0]); !slices.Equal(grad, want) || n != len(in) {
			t.Fatalf("%s: sum %v over %d points, want %v over %d", platform, grad, n, want, len(in))
		}
		for i, q := range in {
			if g := q.(gradCount).grad; !slices.Equal(g, before[i]) {
				t.Fatalf("%s: input %d's gradient is %v after the run, was %v", platform, i, g, before[i])
			}
		}
	}
}
