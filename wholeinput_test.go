package rheem

// Platform independence for the kinds that need the whole input or a whole
// partition at once: the platform a plan is pinned to decides where
// map-partitions, zip-with-id, sample and PageRank run, never what they
// return. Each plan runs pinned in turn to every general engine and is held
// to the reference interpreter (platformtest.Interpret); a loop, which the
// reference does not evaluate, is held to its all-streams run, and PageRank,
// which it does not evaluate either, to agreement between spark and flink.

import (
	"math"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
)

// runPinned builds a plan with build, pins every operator to platform, runs
// it and returns what its sink collected.
func runPinned(t *testing.T, platform string, build func(b *PlanBuilder) *core.Operator) []any {
	t.Helper()
	ctx := fastCtx(t)
	b := ctx.NewPlan("whole-input-" + platform)
	sink := build(b)
	pinAll(b.Plan(), platform)
	res, err := ctx.Execute(b.Plan())
	if err != nil {
		t.Fatalf("%s: %v", platform, err)
	}
	if got := res.Platforms(); len(got) != 1 || got[0] != platform {
		t.Fatalf("the plan pinned to %s ran on %v", platform, got)
	}
	got, err := res.CollectFrom(sink)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func int64s(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestWholeInputKindsAgreeAcrossEngines(t *testing.T) {
	engines := []string{"streams", "spark", "flink"}
	plans := map[string]func(b *PlanBuilder) *core.Operator{
		"zip-with-id": func(b *PlanBuilder) *core.Operator {
			return b.LoadCollection("nums", int64s(10)).ZipWithID().CollectSink()
		},
		"map-partitions": func(b *PlanBuilder) *core.Operator {
			return b.LoadCollection("nums", int64s(100)).MapPartitions("negate", func(part []any) []any {
				for i, q := range part {
					part[i] = -q.(int64)
				}
				return part
			}).CollectSink()
		},
		"bernoulli": func(b *PlanBuilder) *core.Operator {
			return b.LoadCollection("nums", int64s(40)).Sample("bernoulli", 0, 0.2, 42).CollectSink()
		},
		"reservoir": func(b *PlanBuilder) *core.Operator {
			return b.LoadCollection("nums", int64s(1000)).Sample("reservoir", 5, 0, 42).CollectSink()
		},
		"shuffle-first": func(b *PlanBuilder) *core.Operator {
			return b.LoadCollection("nums", int64s(1000)).Sample("shuffle-first", 5, 0, 42).CollectSink()
		},
	}
	for name, build := range plans {
		ref := fastCtx(t).NewPlan("whole-input-reference")
		sink := build(ref)
		want, err := platformtest.Interpret(ref.Plan(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, platform := range engines {
			t.Run(name+"/"+platform, func(t *testing.T) {
				got := runPinned(t, platform, build)
				if err := platformtest.SameMultiset(got, want[sink]); err != nil {
					t.Fatalf("pinned to %s: %v", platform, err)
				}
				if name != "zip-with-id" {
					return
				}
				for _, q := range got {
					if kv := q.(core.KV); kv.Key != kv.Value {
						t.Fatalf("pinned to %s: id %v names the quantum at input position %v", platform, kv.Key, kv.Value)
					}
				}
			})
		}
	}

	// Successive rounds walk successive windows of one shuffle on every
	// engine: three rounds accumulate the same fifteen quanta.
	loop := func(b *PlanBuilder) *core.Operator {
		points := b.LoadCollection("points", int64s(1000))
		return b.LoadCollection("seed", []any{int64(-1)}).Repeat(3, func(l *LoopBody) {
			l.Yield(l.Read(points).Sample("shuffle-first", 5, 0, 42).Union(l.Var("acc")))
		}).CollectSink()
	}
	want := runPinned(t, "streams", loop)
	if len(want) != 16 {
		t.Fatalf("streams: three rounds of five plus the seed gave %d quanta", len(want))
	}
	for _, platform := range engines[1:] {
		t.Run("shuffle-first-in-repeat/"+platform, func(t *testing.T) {
			if err := platformtest.SameMultiset(runPinned(t, platform, loop), want); err != nil {
				t.Fatalf("pinned to %s: %v", platform, err)
			}
		})
	}

	// PageRank is the same partitioned algorithm on spark and flink: the
	// ranks agree to rounding.
	graph := func(b *PlanBuilder) *core.Operator {
		var edges []any
		for v := int64(0); v < 30; v++ {
			edges = append(edges, core.Edge{Src: v, Dst: (v*7 + 3) % 30}, core.Edge{Src: v, Dst: (v*11 + 1) % 31})
		}
		return b.LoadCollection("edges", edges).PageRank(20, 0.85).CollectSink()
	}
	ranks := map[string]map[int64]float64{}
	for _, platform := range engines[1:] {
		ranks[platform] = map[int64]float64{}
		for _, q := range runPinned(t, platform, graph) {
			kv := q.(core.KV)
			ranks[platform][kv.Key.(int64)] = kv.Value.(float64)
		}
	}
	if len(ranks["spark"]) != 31 || len(ranks["flink"]) != 31 {
		t.Fatalf("vertices: spark %d, flink %d, want 31", len(ranks["spark"]), len(ranks["flink"]))
	}
	for v, r := range ranks["spark"] {
		if f, ok := ranks["flink"][v]; !ok || math.Abs(f-r) > 1e-12 {
			t.Fatalf("vertex %d: spark rank %v, flink rank %v (present %v)", v, r, f, ok)
		}
	}
}
