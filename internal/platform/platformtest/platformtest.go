// Package platformtest provides a conformance suite for platform drivers:
// every engine must implement the RHEEM operator semantics identically, so
// the same battery of operator tests runs against each driver. Engine tests
// call Run with their driver; the battery covers the kinds the driver maps.
package platformtest

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// CollectionChannel wraps quanta in a collection channel.
func CollectionChannel(data ...any) *core.Channel {
	return driverutil.CollectionOf(data)
}

// RunOp executes a single operator on the driver with the given main-input
// channels and returns the materialized output quanta.
func RunOp(t *testing.T, d core.Driver, op *core.Operator, inputs ...*core.Channel) []any {
	t.Helper()
	out, _, err := RunOpErr(d, op, inputs...)
	if err != nil {
		t.Fatalf("%s on %s: %v", op, d.Name(), err)
	}
	return out
}

// RunOpErr is RunOp returning errors and stats instead of failing the test.
// The channel the operator's output arrives in must be the one the driver's
// mapping for the kind declares: the optimizer plans movement from the
// declared channel, so an engine that emits another one breaks the plan.
func RunOpErr(d core.Driver, op *core.Operator, inputs ...*core.Channel) ([]any, *core.StageStats, error) {
	stage := &core.Stage{
		ID:           1,
		Platform:     d.Name(),
		Ops:          []*core.Operator{op},
		TerminalOuts: []*core.Operator{op},
	}
	in := core.NewInputs()
	for port, ch := range inputs {
		in.SetMain(op, port, ch)
	}
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		return nil, nil, err
	}
	ch := outs[op]
	if ch == nil {
		return nil, stats, nil
	}
	mappings := core.NewMappingRegistry()
	d.RegisterMappings(mappings)
	for _, alt := range mappings.DirectAlternatives(op) {
		if declared := alt.OutChannel(); ch.Desc.Name != declared {
			return nil, stats, fmt.Errorf("%s on %s arrived in channel %q, registered out-channel is %q", op, d.Name(), ch.Desc.Name, declared)
		}
	}
	data, err := driverutil.ChannelQuanta(ch)
	return data, stats, err
}

// RunChain executes a linear chain of operators as one stage, feeding
// inputs into the first operator, and returns the last operator's output.
func RunChain(t *testing.T, d core.Driver, ops []*core.Operator, inputs ...*core.Channel) []any {
	t.Helper()
	// Wire inputs through a throwaway plan so Inputs()/Outputs() resolve.
	p := core.NewPlan("chain")
	for _, op := range ops {
		p.Add(op)
	}
	p.Chain(ops...)
	last := ops[len(ops)-1]
	stage := &core.Stage{ID: 1, Platform: d.Name(), Ops: ops, TerminalOuts: []*core.Operator{last}}
	in := core.NewInputs()
	for port, ch := range inputs {
		in.SetMain(ops[0], port, ch)
	}
	outs, _, err := d.Execute(stage, in)
	if err != nil {
		t.Fatalf("chain on %s: %v", d.Name(), err)
	}
	data, err := driverutil.ChannelQuanta(outs[last])
	if err != nil {
		t.Fatalf("chain output: %v", err)
	}
	return data
}

// ExecPlan executes a loop-free plan as one stage on the driver, the way the
// executor hands a driver a stage whose sources ran elsewhere: collection
// sources are not executed, their collections arrive as input channels. It
// returns the materialized output of every terminal operator (one no other
// operator consumes) and the stage statistics.
func ExecPlan(d core.Driver, p *core.Plan, sniffers map[*core.Operator]func(any)) (map[*core.Operator][]any, *core.StageStats, error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	stage := &core.Stage{ID: 1, Platform: d.Name(), Sniffers: sniffers}
	in := core.NewInputs()
	for _, op := range order {
		if op.Kind == core.KindCollectionSource {
			continue
		}
		stage.Ops = append(stage.Ops, op)
		if len(op.Outputs()) == 0 {
			stage.TerminalOuts = append(stage.TerminalOuts, op)
		}
		for port, producer := range op.Inputs() {
			if producer.Kind == core.KindCollectionSource {
				in.SetMain(op, port, CollectionChannel(producer.Params.Collection...))
			}
		}
	}
	outs, stats, err := d.Execute(stage, in)
	if err != nil {
		return nil, nil, err
	}
	rows := make(map[*core.Operator][]any, len(outs))
	for op, ch := range outs {
		if rows[op], err = driverutil.ChannelQuanta(ch); err != nil {
			return nil, nil, err
		}
	}
	return rows, stats, nil
}

// CheckPlan holds the driver to the reference interpreter on one plan: run
// as a single stage (see ExecPlan), every terminal operator must produce the
// reference's output as a multiset and every executed operator must report
// the reference's output cardinality. It returns the stage statistics.
func CheckPlan(t *testing.T, d core.Driver, p *core.Plan) *core.StageStats {
	t.Helper()
	want, err := Interpret(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := ExecPlan(d, p, nil)
	if err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
	for op, rows := range got {
		if err := SameMultiset(rows, want[op]); err != nil {
			t.Fatalf("%s: %s output: %v", d.Name(), op, err)
		}
	}
	for _, op := range stats.Stage.Ops {
		if os, ok := stats.Ops[op]; !ok || os.OutCard != int64(len(want[op])) {
			t.Fatalf("%s: %s reported cardinality %d (reported=%v), reference %d", d.Name(), op, os.OutCard, ok, len(want[op]))
		}
	}
	return stats
}

// SameMultiset reports how got differs from want as a multiset of quanta,
// distinguishing dynamic types (see stringOf); nil when equal.
func SameMultiset(got, want []any) error {
	g, w := SortedStrings(got), SortedStrings(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d quanta, reference has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("quantum %d of the sorted output is %q, reference has %q", i, g[i], w[i])
		}
	}
	return nil
}

// SortedInts extracts and sorts int64 results for order-insensitive checks.
func SortedInts(t *testing.T, data []any) []int64 {
	t.Helper()
	out := make([]int64, 0, len(data))
	for _, q := range data {
		switch v := q.(type) {
		case int64:
			out = append(out, v)
		case int:
			out = append(out, int64(v))
		case float64:
			out = append(out, int64(v))
		default:
			t.Fatalf("quantum %T is not integral", q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedStrings formats and sorts results for order-insensitive checks.
func SortedStrings(data []any) []string {
	out := make([]string, len(data))
	for i, q := range data {
		out[i] = stringOf(q)
	}
	sort.Strings(out)
	return out
}

// stringOf formats a quantum with its dynamic type, fields of a Record
// included, so int64(1) and float64(1) never compare equal.
func stringOf(q any) string {
	switch v := q.(type) {
	case string:
		return v
	case core.Record:
		fields := make([]string, len(v))
		for i, f := range v {
			fields[i] = stringOf(f)
		}
		return "[" + strings.Join(fields, " ") + "]"
	}
	return fmt.Sprintf("%T:%v", q, q)
}
