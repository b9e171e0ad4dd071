// Package baselines implements the comparison systems of the paper's
// evaluation, re-created against the same in-process substrates so the
// figures compare strategies rather than hardware:
//
//   - NADEEF: a single-node data cleaning tool — blocked nested-loop
//     violation detection, no inequality-join algorithm.
//   - SparkSQL: inequality joins executed the only way a 2018 SQL-on-Spark
//     engine could — a cartesian product followed by a filter — pinned to
//     the spark engine.
//   - MLlib: SGD executed entirely on the spark engine (no single-node
//     mixing for the per-iteration update).
//   - SystemML: like MLlib but with the heavier per-job compilation
//     overhead of SystemML's runtime (a spark engine configured with a
//     higher job-startup latency).
//   - Musketeer: a rule-based cross-platform mapper that, per the paper's
//     Figure 11 analysis, re-"generates and compiles code" per stage and
//     materializes every intermediate result to the DFS — including once
//     per loop iteration.
package baselines

import (
	"fmt"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/simclock"
)

// NadeefDetect is the NADEEF baseline: single-threaded blocked nested-loop
// detection of denial-constraint violations. It returns the number of
// violations (materializing pairs like BigDansing would).
func NadeefDetect(records []core.Record, colA, colB int, opA, opB core.Inequality) int {
	// NADEEF blocks on nothing for a two-sided inequality rule: the rule
	// relates every pair, so the candidate space is quadratic.
	violations := 0
	for i, a := range records {
		for j, b := range records {
			if i == j {
				continue
			}
			if opA.Holds(a.Float(colA), b.Float(colA)) && opB.Holds(a.Float(colB), b.Float(colB)) {
				violations++
			}
		}
	}
	return violations
}

// SparkSQLDetect is the SparkSQL baseline: the inequality self-join as a
// cartesian product plus a filter, pinned to the spark engine.
func SparkSQLDetect(ctx *rheem.Context, records []any, colA, colB int, opA, opB core.Inequality) (int, error) {
	b := ctx.NewPlan("sparksql-detect")
	left := b.LoadCollection("l", records)
	right := b.LoadCollection("r", records)
	count := left.Cartesian(right, func(l, r any) any { return core.Record{l, r} }).
		Filter("theta", func(q any) bool {
			pair := q.(core.Record)
			a, bb := pair[0].(core.Record), pair[1].(core.Record)
			return a.Int(datagen.TaxColID) != bb.Int(datagen.TaxColID) &&
				opA.Holds(a.Float(colA), bb.Float(colA)) &&
				opB.Holds(a.Float(colB), bb.Float(colB))
		}).
		Count()
	sink := count.CollectSink()
	tasksPinAll(b.Plan(), "spark")
	res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
	if err != nil {
		return 0, err
	}
	out, err := res.CollectFrom(sink)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("baselines: count produced %d quanta", len(out))
	}
	return int(out[0].(int64)), nil
}

func tasksPinAll(p *core.Plan, platform string) {
	for _, op := range p.Operators() {
		if op.Kind.IsLoop() {
			tasksPinAll(op.Body, platform)
			continue
		}
		op.TargetPlatform = platform
	}
}

// MusketeerConfig tunes the Musketeer simulation.
type MusketeerConfig struct {
	// CodegenMs is the per-stage code generation + compilation + packaging
	// pause (scaled down from the tens of seconds the paper observed).
	CodegenMs float64
	// SmallInputRows is the rule threshold below which Musketeer maps a
	// stage to the single-node engine.
	SmallInputRows int
}

// DefaultMusketeer returns the configuration used by the experiments.
func DefaultMusketeer() MusketeerConfig {
	return MusketeerConfig{CodegenMs: 25, SmallInputRows: 10000}
}

// MusketeerRun executes a plan the Musketeer way: operator by operator,
// each stage dispatched to the platform a static rule picks, with a
// code-generation pause per stage and every intermediate materialized to
// (and re-read from) the DFS. Loop bodies pay all of that once per
// iteration. It returns the quanta of the plan's sink-feeding operator.
func MusketeerRun(ctx *rheem.Context, p *core.Plan, cfg MusketeerConfig) ([]any, error) {
	return musketeerRun(ctx, p, cfg, nil, nil)
}

func musketeerRun(ctx *rheem.Context, p *core.Plan, cfg MusketeerConfig, loopVar []any, outer map[*core.Operator][]any) ([]any, error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	results := map[*core.Operator][]any{}
	var last []any
	for _, op := range order {
		switch {
		case op.Kind.IsLoop():
			cur := results[op.Inputs()[0]]
			iters := op.Params.Iterations
			if iters <= 0 {
				iters = 10
			}
			for it := 0; it < iters; it++ {
				outerData := map[*core.Operator][]any{}
				for _, ref := range op.OuterRefs() {
					outerData[ref.OuterRef] = results[ref.OuterRef]
				}
				cur, err = musketeerRun(ctx, op.Body, cfg, cur, outerData)
				if err != nil {
					return nil, fmt.Errorf("baselines: musketeer loop round %d: %w", it, err)
				}
			}
			results[op] = cur
			last = cur
			continue

		case op.Kind.IsSink():
			results[op] = results[op.Inputs()[0]]
			last = results[op]
			continue
		}

		// Placeholder sources pass their data through without a job of their
		// own (Musketeer reads inputs from HDFS at the consuming stage).
		switch {
		case op == p.LoopInput && loopVar != nil:
			results[op] = loopVar
			last = loopVar
			continue
		case op.OuterRef != nil && outer != nil:
			results[op] = outer[op.OuterRef]
			last = results[op]
			continue
		case op.Kind == core.KindCollectionSource:
			results[op] = op.Params.Collection
			last = results[op]
			continue
		}

		// Resolve the stage inputs from previously materialized results.
		var ins [][]any
		for _, producer := range op.Inputs() {
			ins = append(ins, results[producer])
		}

		// Broadcast side inputs resolve from materialized results (the loop
		// variable when the producer is the loop input placeholder).
		bcasts := map[string][]any{}
		for _, producer := range op.Broadcasts() {
			if producer == p.LoopInput && loopVar != nil {
				bcasts[producer.Label] = loopVar
			} else {
				bcasts[producer.Label] = results[producer]
			}
		}
		out, err := musketeerStage(ctx, op, ins, bcasts, cfg)
		if err != nil {
			return nil, err
		}
		results[op] = out
		last = out
	}
	return last, nil
}

// musketeerStage runs one operator as its own job: codegen pause, platform
// by rule, DFS materialization of the output.
func musketeerStage(ctx *rheem.Context, op *core.Operator, ins [][]any, bcasts map[string][]any, cfg MusketeerConfig) ([]any, error) {
	simclock.Charge(time.Duration(cfg.CodegenMs * float64(time.Millisecond)))

	b := ctx.NewPlan("musketeer-stage")
	stage := cloneOperator(op)
	var handles []*rheem.DataQuanta
	rows := 0
	for i, in := range ins {
		rows += len(in)
		handles = append(handles, b.LoadCollection(fmt.Sprintf("in%d", i), in))
	}
	platform := "spark"
	if rows < cfg.SmallInputRows {
		platform = "streams"
	}
	if op.Kind == core.KindPageRank {
		platform = "pregel"
		if rows < cfg.SmallInputRows {
			platform = "graphmem"
		}
	}
	stage.TargetPlatform = platform
	dq := b.CustomOperator(stage, handles...)
	// Broadcast inputs: Musketeer ships them like ordinary side files; we
	// feed each as a broadcast collection under the original producer label.
	for label, data := range bcasts {
		dq.WithBroadcast(b.LoadCollection(label, data))
	}
	sink := dq.CollectSink()
	res, err := ctx.Execute(b.Plan(), rheem.WithProgressive(false))
	if err != nil {
		return nil, fmt.Errorf("baselines: musketeer stage %s: %w", op, err)
	}
	out, err := res.CollectFrom(sink)
	if err != nil {
		return nil, err
	}
	// Materialize to DFS and read back: Musketeer's per-stage HDFS round
	// trip ("writes the output to HDFS at each stage").
	name := fmt.Sprintf("musketeer/%s-%d.jsonl", op.Kind, time.Now().UnixNano())
	if err := writeDFS(ctx, name, out); err != nil {
		return nil, err
	}
	return readDFS(ctx, name)
}

func cloneOperator(op *core.Operator) *core.Operator {
	c := &core.Operator{Kind: op.Kind, Label: op.Label, UDF: op.UDF, Params: op.Params, Selectivity: op.Selectivity}
	return c
}

func writeDFS(ctx *rheem.Context, name string, data []any) error {
	lines := make([]string, len(data))
	for i, q := range data {
		raw, err := core.EncodeQuantum(q)
		if err != nil {
			return err
		}
		lines[i] = string(raw)
	}
	return ctx.DFS.WriteLines(name, lines)
}

func readDFS(ctx *rheem.Context, name string) ([]any, error) {
	lines, err := ctx.DFS.ReadLines(name)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(lines))
	for i, l := range lines {
		q, err := core.DecodeQuantum([]byte(l))
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}
