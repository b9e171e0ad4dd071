package monitor

import (
	"testing"
	"time"

	"rheem/internal/core"
)

// stats is one record entry: a stage of the given operators, each observed
// with its cardinality and an equal share of the runtime.
func stats(platform string, runtime time.Duration, cards map[*core.Operator]int64) *core.StageStats {
	stage := &core.Stage{ID: 1, Platform: platform}
	ops := map[*core.Operator]core.OpStats{}
	for op, n := range cards {
		stage.Ops = append(stage.Ops, op)
		ops[op] = core.OpStats{OutCard: n, Runtime: runtime / time.Duration(len(cards))}
	}
	return &core.StageStats{Stage: stage, Runtime: runtime, Ops: ops}
}

func TestObservedCardsKeepTheLastRun(t *testing.T) {
	opA := &core.Operator{Kind: core.KindMap, Label: "a"}
	opB := &core.Operator{Kind: core.KindFilter, Label: "b"}
	record := []*core.StageStats{
		stats("spark", 10*time.Millisecond, map[*core.Operator]int64{opA: 100}),
		stats("streams", 4*time.Millisecond, map[*core.Operator]int64{opB: 7}),
		stats("streams", 4*time.Millisecond, map[*core.Operator]int64{opB: 9}), // a later round
	}
	cards := ObservedCards(record)
	if cards[opA] != 100 || cards[opB] != 9 {
		t.Fatalf("cards = %v", cards)
	}
	// ObservedCards is a reading: changing it leaves the record alone.
	cards[opA] = 999
	if ObservedCards(record)[opA] != 100 {
		t.Fatal("ObservedCards wrote through to the record")
	}
}

func TestSummarize(t *testing.T) {
	opA := &core.Operator{Kind: core.KindMap, Label: "a"}
	opB := &core.Operator{Kind: core.KindFilter, Label: "b"}
	loop := &core.Operator{Kind: core.KindRepeat, Label: "l"}
	body := stats("streams", 4*time.Millisecond, map[*core.Operator]int64{opB: 7})
	body.Loop, body.Round = loop, 3
	record := []*core.StageStats{stats("spark", 10*time.Millisecond, map[*core.Operator]int64{opA: 100, opB: 7}), body}

	snap := Summarize(record)
	if len(snap.Stages) != 2 {
		t.Fatalf("stages = %d", len(snap.Stages))
	}
	if snap.Stages[0].Platform != "spark" || snap.Stages[1].Platform != "streams" {
		t.Fatalf("platform order = %+v", snap.Stages)
	}
	if snap.TotalRuntimeMs != 14 {
		t.Fatalf("total = %v ms", snap.TotalRuntimeMs)
	}
	// Operators render sorted by name with their observed cardinalities.
	first := snap.Stages[0]
	if len(first.Ops) != 2 || first.Ops[0].Op >= first.Ops[1].Op {
		t.Fatalf("ops not sorted: %+v", first.Ops)
	}
	cards := map[string]int64{}
	for _, o := range first.Ops {
		cards[o.Op] = o.OutCard
	}
	if cards["Map(a)"] != 100 && cards[first.Ops[0].Op]+cards[first.Ops[1].Op] != 107 {
		t.Fatalf("cards = %v", cards)
	}
	if first.Ops[0].RuntimeMs != 5 {
		t.Fatalf("operator runtime = %v ms, want its 5 ms share", first.Ops[0].RuntimeMs)
	}
	// Only a loop-body stage names its loop and round.
	if first.Loop != "" || snap.Stages[1].Loop != loop.String() || snap.Stages[1].Round != 3 {
		t.Fatalf("loop placement = %+v", snap.Stages)
	}
}

func TestHealthCheckOrdersByFactor(t *testing.T) {
	opA := &core.Operator{Kind: core.KindFilter, Label: "mild"}
	opB := &core.Operator{Kind: core.KindFilter, Label: "wild"}
	record := []*core.StageStats{stats("spark", time.Millisecond, map[*core.Operator]int64{opA: 50, opB: 10000})}

	ep := &core.ExecPlan{Assignments: map[*core.Operator]*core.Assignment{
		opA: {OutCard: core.CardEstimate{Low: 10, High: 10, Confidence: 1}}, // factor 5
		opB: {OutCard: core.CardEstimate{Low: 10, High: 10, Confidence: 1}}, // factor 1000
	}}
	found := HealthCheck(record, ep, 4)
	if len(found) != 2 {
		t.Fatalf("mismatches = %v", found)
	}
	if found[0].Op != opB || found[1].Op != opA {
		t.Fatalf("not ordered worst-first: %v", found)
	}
	// Threshold filters.
	if got := HealthCheck(record, ep, 100); len(got) != 1 || got[0].Op != opB {
		t.Fatalf("threshold filter = %v", got)
	}
	// Unknown operators are ignored.
	record = append(record, stats("spark", time.Millisecond, map[*core.Operator]int64{{}: 5}))
	if got := HealthCheck(record, ep, 4); len(got) != 2 {
		t.Fatalf("unknown op not ignored: %v", got)
	}
}

// TestHealthCheckDeterministicTieBreak feeds many equal-factor mismatches
// through repeated checks: map iteration order varies, the ranking must not.
func TestHealthCheckDeterministicTieBreak(t *testing.T) {
	cards := map[*core.Operator]int64{}
	assignments := map[*core.Operator]*core.Assignment{}
	for _, label := range []string{"e", "b", "d", "a", "c", "f", "h", "g"} {
		op := &core.Operator{Kind: core.KindFilter, Label: label}
		cards[op] = 100 // every operator mismatches by the same factor 10
		assignments[op] = &core.Assignment{OutCard: core.CardEstimate{Low: 10, High: 10, Confidence: 1}}
	}
	record := []*core.StageStats{stats("spark", time.Millisecond, cards)}
	ep := &core.ExecPlan{Assignments: assignments}

	first := HealthCheck(record, ep, 4)
	if len(first) != len(cards) {
		t.Fatalf("mismatches = %d, want %d", len(first), len(cards))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Op.String() >= first[i].Op.String() {
			t.Fatalf("equal factors not ordered by name: %v then %v", first[i-1].Op, first[i].Op)
		}
	}
	for round := 0; round < 20; round++ {
		again := HealthCheck(record, ep, 4)
		for i := range first {
			if again[i].Op != first[i].Op {
				t.Fatalf("round %d: rank %d flapped from %v to %v", round, i, first[i].Op, again[i].Op)
			}
		}
	}
}
