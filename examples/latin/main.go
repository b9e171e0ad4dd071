// The RheemLatin example: the paper's Listing 1 in the data-flow language.
// UDFs are Go functions registered by name; the `repeat ... over weights`
// block compiles to a loop operator whose body samples the cached points
// and refreshes the broadcast weights each round — and the line
// `with platform 'streams'` pins one operator the way the paper shows.
package main

import (
	"fmt"
	"log"

	"rheem"
	"rheem/internal/core"
	"rheem/latin"
)

const script = `
-- SGD in RheemLatin (cf. Listing 1 of the paper)
points = load collection points;
cached = cache points;
weights = load collection initialWeights;
weights = repeat 40 over weights {
	sampled  = sample cached 25 method 'shuffle-first' seed 11;
	gradient = map sampled using computeGradient with broadcast weights;
	gsum     = reduce gradient using sumGradients;
	weights  = map gsum using updateWeights with broadcast weights with platform 'streams';
};
collect weights;
`

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

	udfs := latin.NewRegistry()
	points := make([]any, 1000)
	for i := range points {
		points[i] = float64(i%25) - 12 // mean 0
	}
	udfs.RegisterCollection("points", points)
	udfs.RegisterCollection("initialWeights", []any{8.0})

	var w float64
	readW := func(bc core.BroadcastCtx) { w = bc.Get("weights")[0].(float64) }
	udfs.RegisterMapCtx("computeGradient", readW, func(q any) any { return w - q.(float64) })
	udfs.RegisterReduce("sumGradients", func(a, b any) any { return a.(float64) + b.(float64) })
	udfs.RegisterMapCtx("updateWeights", readW, func(q any) any { return w - 0.08*q.(float64)/25 })

	compiled, err := latin.Compile(script, udfs)
	if err != nil {
		return err
	}
	res, err := ctx.Execute(compiled.Plan)
	if err != nil {
		return err
	}
	out, err := res.CollectFrom(compiled.Sinks["weights"])
	if err != nil {
		return err
	}
	fmt.Printf("platforms: %v\n", res.Platforms())
	fmt.Printf("final weight after 40 rounds: %.4f (true mean 0)\n", out[0].(float64))
	return nil
}
