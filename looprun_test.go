package rheem

// A shuffle-first sample inside a loop keeps its permutation in the loop
// run's state (core.LoopRun) instead of rebuilding it each round. The
// permutation depends only on the input's length and the seed, so every
// round must still draw exactly the window a fresh sampler draws: these
// tests hold each round's draw, in order, to algo.NewShuffleFirstSample built
// anew, pinned in turn to every general engine.

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"rheem/internal/algo"
	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
)

// drawLog records the windows a loop body's samples drew, per label, one
// entry per round in round order.
type drawLog struct {
	mu      sync.Mutex
	byLabel map[string][][]any
}

func newDrawLog() *drawLog { return &drawLog{byLabel: map[string][][]any{}} }

// record appends to d's plan the operators, pinned to platform, that gather
// d's whole draw, in draw order, into one list, log it under label, and
// yield its length.
func (l *drawLog) record(label, platform string, d *DataQuanta) *DataQuanta {
	return d.Map("wrap-"+label, func(q any) any { return []any{q} }).WithTargetPlatform(platform).
		Reduce("concat-"+label, func(a, b any) any { return append(slices.Clone(a.([]any)), b.([]any)...) }).WithTargetPlatform(platform).
		Map("record-"+label, func(q any) any {
			w := q.([]any)
			l.mu.Lock()
			l.byLabel[label] = append(l.byLabel[label], w)
			l.mu.Unlock()
			return int64(len(w))
		}).WithTargetPlatform(platform)
}

func (l *drawLog) windows(label string) [][]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byLabel[label]
}

// freshWindows is what a sampler built anew for every round draws over data.
func freshWindows(data []any, k int, seed int64, rounds int) [][]any {
	out := make([][]any, rounds)
	for r := range out {
		out[r] = algo.NewShuffleFirstSample(len(data), seed+1).Draw(data, k, r)
	}
	return out
}

func TestShuffleFirstLoopRunIsExact(t *testing.T) {
	const n, k, rounds = 600, 25, 40
	points := int64s(n)
	for _, platform := range []string{"streams", "spark", "flink"} {
		t.Run(platform, func(t *testing.T) {
			ctx := fastCtx(t)

			// A 40-round Repeat draws, round by round and in order, what a
			// fresh sampler draws; a second run of the same plan on the same
			// context draws the same again, so nothing leaks between runs.
			log := newDrawLog()
			b := ctx.NewPlan("loop-run-repeat")
			pts := b.LoadCollection("points", points)
			sink := b.LoadCollection("seed", []any{int64(0)}).Repeat(rounds, func(l *LoopBody) {
				l.Yield(log.record("a", platform, l.Read(pts).Sample("shuffle-first", k, 0, 42)).Union(l.Var("acc")))
			}).CollectSink()
			pinAll(b.Plan(), platform)
			want := freshWindows(points, k, 42, rounds)
			for run := 1; run <= 2; run++ {
				res, err := ctx.Execute(b.Plan())
				if err != nil {
					t.Fatal(err)
				}
				if got, err := res.CollectFrom(sink); err != nil || len(got) != rounds+1 {
					t.Fatalf("run %d: loop output %v (%v), want the seed and a count per round", run, got, err)
				}
				got := log.windows("a")[(run-1)*rounds:]
				if len(got) != rounds {
					t.Fatalf("run %d: %d windows recorded, want %d", run, len(got), rounds)
				}
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("run %d round %d: drew %v, a fresh sampler draws %v", run, r, got[r], want[r])
					}
				}
			}

			// Outside a loop the sample is the fresh sampler's round 0.
			b = ctx.NewPlan("loop-run-none")
			sink = b.LoadCollection("points", points).Sample("shuffle-first", k, 0, 42).CollectSink()
			pinAll(b.Plan(), platform)
			res, err := ctx.Execute(b.Plan())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := res.CollectFrom(sink); err != nil || !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("outside a loop: drew %v (%v), want %v", got, err, want[0])
			}
		})
	}
}

// TestShuffleFirstLoopRunRebuildsOnNewLength samples the loop variable
// itself, which grows by the draw every round: each round's input has a new
// length, so the kept permutation is rebuilt every round, and each round's
// draw is still the fresh sampler's over that round's (sorted) input.
func TestShuffleFirstLoopRunRebuildsOnNewLength(t *testing.T) {
	const k, rounds = 7, 8
	less := func(a, b any) bool { return a.(int64) < b.(int64) }
	for _, platform := range []string{"streams", "spark", "flink"} {
		t.Run(platform, func(t *testing.T) {
			ctx := fastCtx(t)
			var seen [][]any // the loop variable before each round
			b := ctx.NewPlan("loop-run-grow")
			sink := b.LoadCollection("start", int64s(100)).DoWhile(rounds, func(_ int, cur []any) bool {
				seen = append(seen, slices.Clone(cur))
				return true
			}, func(l *LoopBody) {
				v := l.Var("v")
				l.Yield(v.Union(v.Sort(less).Sample("shuffle-first", k, 0, 9)))
			}).CollectSink()
			pinAll(b.Plan(), platform)
			res, err := ctx.Execute(b.Plan())
			if err != nil {
				t.Fatal(err)
			}
			final, err := res.CollectFrom(sink)
			if err != nil {
				t.Fatal(err)
			}
			seen = append(seen, final)
			if len(seen) != rounds+1 {
				t.Fatalf("observed %d loop values, want %d", len(seen), rounds+1)
			}
			want := int64s(100)
			for r := 0; r < rounds; r++ {
				if err := platformtest.SameMultiset(seen[r], want); err != nil {
					t.Fatalf("before round %d: %v", r, err)
				}
				sorted := slices.Clone(want)
				sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
				drawn := algo.NewShuffleFirstSample(len(sorted), 9+1).Draw(sorted, k, r)
				want = append(slices.Clone(want), drawn...)
			}
			if err := platformtest.SameMultiset(seen[rounds], want); err != nil {
				t.Fatalf("loop output: %v", err)
			}
		})
	}
}

// TestShuffleFirstLoopRunTwoSamplesOneWave puts two shuffle-first samples in
// one loop body: in one stage on each engine, and in two stages of one wave
// (one on spark, one on flink, their union on streams) that share the loop
// run from two goroutines. Each draws its own seed's windows.
func TestShuffleFirstLoopRunTwoSamplesOneWave(t *testing.T) {
	const n, k, rounds = 300, 11, 12
	points := int64s(n)
	placements := map[string][3]string{ // sample a's, sample c's, the union's
		"streams":     {"streams", "streams", "streams"},
		"spark":       {"spark", "spark", "spark"},
		"flink":       {"flink", "flink", "flink"},
		"spark+flink": {"spark", "flink", "streams"},
	}
	for name, on := range placements {
		t.Run(name, func(t *testing.T) {
			ctx := fastCtx(t)
			log := newDrawLog()
			b := ctx.NewPlan("loop-run-two")
			pts := b.LoadCollection("points", points)
			b.LoadCollection("seed", []any{int64(0)}).Repeat(rounds, func(l *LoopBody) {
				a := log.record("a", on[0], l.Read(pts).WithTargetPlatform(on[0]).Sample("shuffle-first", k, 0, 5).WithTargetPlatform(on[0]))
				c := log.record("c", on[1], l.Read(pts).WithTargetPlatform(on[1]).Sample("shuffle-first", k, 0, 6).WithTargetPlatform(on[1]))
				l.Yield(a.Union(c).Union(l.Var("acc")))
			}).CollectSink()
			pinUnpinned(b.Plan(), on[2])
			res, err := ctx.Execute(b.Plan())
			if err != nil {
				t.Fatal(err)
			}
			// Every round, each sample ran in a stage on its own engine; the
			// two stages read only the points, so mixed they share a wave.
			samplesOn := map[string]int{}
			for _, e := range res.Record().Entries {
				for _, op := range e.Stage.Ops {
					if e.Loop != nil && op.Kind == core.KindSample {
						samplesOn[e.Stage.Platform]++
					}
				}
			}
			want := map[string]int{on[0]: rounds}
			want[on[1]] += rounds
			if !reflect.DeepEqual(samplesOn, want) {
				t.Fatalf("sample stages per engine: %v, want %v", samplesOn, want)
			}
			for label, seed := range map[string]int64{"a": 5, "c": 6} {
				got, want := log.windows(label), freshWindows(points, k, seed, rounds)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sample %s drew %v, a fresh sampler draws %v", label, got, want)
				}
			}
		})
	}
}

// pinUnpinned pins every operator of p and its loop bodies that has no
// platform yet.
func pinUnpinned(p *core.Plan, platform string) {
	for _, op := range p.Operators() {
		if op.Body != nil {
			pinUnpinned(op.Body, platform)
		} else if op.TargetPlatform == "" {
			op.TargetPlatform = platform
		}
	}
}
