// The SGD example: the paper's running example (Figure 3) through the
// ML4all application. Training data is a CSV on the DFS; the optimizer
// mixes platforms — sampling and gradient computation where the data is
// big, the tiny per-iteration weight update on the single-node engine —
// and the loop's weights are broadcast into the gradient UDF each round.
package main

import (
	"fmt"
	"log"

	"rheem"
	"rheem/apps/ml4all"
	"rheem/internal/datagen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the example; main exits only after it returns, so the context
// (and its temporary DFS directory) is closed on every path.
func run() error {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return err
	}
	defer ctx.Close()

	const dim = 8
	points := datagen.Points(5000, dim, 42)
	if err := ctx.DFS.WriteLines("train.csv", datagen.PointLines(points)); err != nil {
		return err
	}

	raw := ctx.NewPlan("sgd-example").ReadTextFile("dfs://train.csv")
	model, err := ml4all.Train(ctx, raw, ml4all.SGD{LearningRate: 0.5}, ml4all.Options{
		Iterations: 50,
		SampleSize: 100, // mini-batch via the shuffle-first sampler
		Dim:        dim,
		Seed:       7,
	})
	if err != nil {
		return err
	}

	labelled := make([]ml4all.LabeledPoint, len(points))
	for i, p := range points {
		labelled[i] = ml4all.LabeledPoint{Label: p.Label, Features: p.Features}
	}
	fmt.Printf("trained %d-dimensional model, training accuracy %.1f%%\n",
		dim, 100*ml4all.Accuracy(labelled, model))
	fmt.Printf("weights: %.3f\n", model)
	return nil
}
