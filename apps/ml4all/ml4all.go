// Package ml4all reproduces the ML4all application of the paper (Section
// 2.2): machine learning algorithms are abstracted into three phases —
// preparation (Transform, Stage), processing (Sample, Compute, Update), and
// convergence (Loop, Converge) — expressed through seven logical operators
// that compile onto RHEEM operators. The optimizer then mixes platforms:
// sampling and data-parallel gradient computation on a parallel engine, the
// small per-iteration update on the single-node engine, exactly the
// opportunistic plan of Figure 3.
package ml4all

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rheem"
	"rheem/internal/core"
)

// Algorithm is the seven-operator abstraction: implementations provide the
// pieces, ml4all assembles the cross-platform plan.
type Algorithm interface {
	// Transform parses one raw input quantum (e.g. a CSV line) into a data
	// point.
	Transform(raw any) any
	// Stage produces the initial model (e.g. a zero weight vector).
	Stage(dim int) []float64
	// Compute emits the per-point gradient contribution given the current
	// model.
	Compute(point any, model []float64) []float64
	// Update folds the aggregated gradient into the model.
	Update(model []float64, gradSum []float64, count float64, round int) []float64
	// Converge reports whether training may stop.
	Converge(oldModel, newModel []float64, round int) bool
}

// Options tune a training run.
type Options struct {
	Iterations int    // max iterations (Loop)
	SampleSize int    // mini-batch size (Sample); <=0 trains full-batch
	Method     string // sampling method; default "shuffle-first" (the ML4all plug-in sampler)
	Seed       int64
	Dim        int // model dimensionality
}

// LabeledPoint is the parsed data point used by the bundled algorithms.
type LabeledPoint struct {
	Label    float64
	Features []float64
}

// SGD is stochastic gradient descent for L2-regularized logistic-style
// linear classification (hinge-like gradient), the paper's running example.
type SGD struct {
	LearningRate float64
	Lambda       float64
	// Tolerance stops early when the model moves less than this (L2).
	Tolerance float64
}

// Transform implements Algorithm: parse "label,f1,f2,..." lines.
func (s SGD) Transform(raw any) any {
	switch v := raw.(type) {
	case LabeledPoint:
		return v
	case string:
		parts := strings.Split(v, ",")
		label, _ := strconv.ParseFloat(parts[0], 64)
		features := make([]float64, len(parts)-1)
		for i, p := range parts[1:] {
			features[i], _ = strconv.ParseFloat(p, 64)
		}
		return LabeledPoint{Label: label, Features: features}
	default:
		return v
	}
}

// Stage implements Algorithm.
func (s SGD) Stage(dim int) []float64 { return make([]float64, dim) }

// Compute implements Algorithm: hinge-loss subgradient per point.
func (s SGD) Compute(point any, model []float64) []float64 {
	p := point.(LabeledPoint)
	margin := 0.0
	for i, f := range p.Features {
		margin += f * model[i]
	}
	grad := make([]float64, len(model))
	if p.Label*margin < 1 {
		for i, f := range p.Features {
			grad[i] = -p.Label * f
		}
	}
	return grad
}

// Update implements Algorithm.
func (s SGD) Update(model, gradSum []float64, count float64, round int) []float64 {
	lr := s.LearningRate / (1 + 0.01*float64(round))
	next := make([]float64, len(model))
	for i := range model {
		next[i] = model[i] - lr*(gradSum[i]/count+s.Lambda*model[i])
	}
	return next
}

// Converge implements Algorithm.
func (s SGD) Converge(oldModel, newModel []float64, round int) bool {
	if s.Tolerance <= 0 {
		return false
	}
	var d float64
	for i := range oldModel {
		diff := oldModel[i] - newModel[i]
		d += diff * diff
	}
	return d < s.Tolerance*s.Tolerance
}

// BuildPlan assembles the training plan over raw input quanta and returns
// the builder plus the final-model sink.
func BuildPlan(ctx *rheem.Context, name string, raw *rheem.DataQuanta, algo Algorithm, opts Options) (*rheem.DataQuanta, error) {
	if opts.Iterations <= 0 {
		return nil, fmt.Errorf("ml4all: iterations must be positive")
	}
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("ml4all: model dimensionality required")
	}
	method := opts.Method
	if method == "" {
		method = "shuffle-first"
	}

	// Preparation phase: Transform + Stage.
	points := raw.Map("transform", func(q any) any { return algo.Transform(q) }).Cache()
	builder := pointsBuilder(points)
	model0 := builder.LoadCollection("model", []any{algo.Stage(opts.Dim)})

	// Processing + convergence phases inside the loop.
	var model []float64
	readModel := func(bc core.BroadcastCtx) {
		model = bc.Get("model")[0].([]float64)
	}
	loopBody := func(l *rheem.LoopBody) {
		mvar := l.Var("model")
		data := l.Read(points)
		if opts.SampleSize > 0 {
			data = data.Sample(method, opts.SampleSize, 0, opts.Seed)
		}
		grads := data.MapWithCtx("compute", readModel, func(q any) any {
			return algo.Compute(q, model)
		}).WithBroadcast(mvar)
		agg := grads.Map("with-count", func(q any) any {
			return gradCount{grad: q.([]float64), n: 1}
		}).Reduce("sum", sumGrads)
		next := agg.MapWithCtx("update", readModel, func(q any) any {
			grad, n := gradOf(q)
			return algo.Update(model, grad, float64(n), 0)
		}).WithBroadcast(mvar)
		l.Yield(next)
	}

	var final *rheem.DataQuanta
	if conv, usesConv := convergeBound(algo); usesConv {
		final = model0.DoWhile(opts.Iterations, conv, loopBody)
	} else {
		final = model0.Repeat(opts.Iterations, loopBody)
	}
	return final, nil
}

// gradCount is one point's gradient as it enters the "sum" reduce, n = 1.
// The reduce's own accumulator is a *gradCount: a gradient slice the reduce
// allocated, which later folds add into in place, and the number of points
// summed into it.
type gradCount struct {
	grad []float64
	n    int
}

// gradOf returns a "sum" input's or output's gradient and point count.
func gradOf(q any) ([]float64, int) {
	if g, ok := q.(*gradCount); ok {
		return g.grad, g.n
	}
	g := q.(gradCount)
	return g.grad, g.n
}

// sumGrads is the "sum" reduce. Its first fold copies the left gradient into
// a *gradCount of its own, and every fold adds the right gradient into that
// one, so a reduce allocates one gradient, not one per fold, and never
// writes into an input quantum's slice. The additions are the ones a fresh
// slice per fold made, in the same order, so the sums are bit for bit the
// same.
func sumGrads(a, b any) any {
	acc, ok := a.(*gradCount)
	if !ok {
		grad, n := gradOf(a)
		acc = &gradCount{grad: slices.Clone(grad), n: n}
	}
	grad, n := gradOf(b)
	for i := range acc.grad {
		acc.grad[i] += grad[i]
	}
	acc.n += n
	return acc
}

// convergeBound adapts Algorithm.Converge to the DoWhile condition when the
// algorithm actually implements early stopping.
func convergeBound(algo Algorithm) (func(round int, cur []any) bool, bool) {
	s, ok := algo.(SGD)
	if !ok || s.Tolerance <= 0 {
		return nil, false
	}
	var prev []float64
	return func(round int, cur []any) bool {
		if len(cur) != 1 {
			return round == 0
		}
		m := cur[0].([]float64)
		if prev != nil && s.Converge(prev, m, round) {
			return false
		}
		prev = append(prev[:0:0], m...)
		return true
	}, true
}

// pointsBuilder recovers the plan builder from a DataQuanta handle.
func pointsBuilder(d *rheem.DataQuanta) *rheem.PlanBuilder { return d.Builder() }

// Train runs the whole pipeline: build, optimize, execute, return the model.
func Train(ctx *rheem.Context, raw *rheem.DataQuanta, algo Algorithm, opts Options, execOpts ...rheem.ExecOption) ([]float64, error) {
	final, err := BuildPlan(ctx, "ml4all-train", raw, algo, opts)
	if err != nil {
		return nil, err
	}
	out, err := final.Collect(execOpts...)
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, fmt.Errorf("ml4all: expected one model, got %d quanta", len(out))
	}
	model, ok := out[0].([]float64)
	if !ok {
		return nil, fmt.Errorf("ml4all: model quantum is %T", out[0])
	}
	return model, nil
}

// Accuracy evaluates a linear model on labelled points.
func Accuracy(points []LabeledPoint, model []float64) float64 {
	if len(points) == 0 {
		return 0
	}
	correct := 0
	for _, p := range points {
		margin := 0.0
		for i, f := range p.Features {
			margin += f * model[i]
		}
		if (margin >= 0) == (p.Label > 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(points))
}
