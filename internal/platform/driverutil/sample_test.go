package driverutil

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"rheem/internal/algo"
	"rheem/internal/core"
)

func shuffleFirstOp(k int, seed int64) *core.Operator {
	return &core.Operator{Kind: core.KindSample, Params: core.Params{SampleMethod: "shuffle-first", SampleSize: k, Seed: seed}}
}

func int64Quanta(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i * 3)
	}
	return out
}

// TestSampleLoopRunMatchesFresh: a shuffle-first Sample that keeps its
// permutation in a loop run draws, round by round, exactly what a Sample
// outside any loop (a permutation built for the call) draws — over 40 rounds
// of one input, and over inputs whose length changes between rounds, where
// the kept sampler is rebuilt for the new length and kept while it holds.
func TestSampleLoopRunMatchesFresh(t *testing.T) {
	op := shuffleFirstOp(50, 7)
	run := new(core.LoopRun)
	data := int64Quanta(2000)
	for r := 0; r < 40; r++ {
		got, err := Sample(op, data, core.Round{N: r, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Sample(op, data, core.Round{N: r})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the loop run drew %v, a fresh sampler %v", r, got, want)
		}
	}
	prev, prevLen := run.Kept(op), len(data)
	for r, n := range []int{2000, 1500, 1500, 10, 0, 2000} {
		data := int64Quanta(n)
		got, err := Sample(op, data, core.Round{N: 40 + r, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Sample(op, data, core.Round{N: 40 + r})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d over %d quanta: the loop run drew %v, a fresh sampler %v", 40+r, n, got, want)
		}
		s, _ := run.Kept(op).(*algo.ShuffleFirstSample)
		if s == nil || s.Len() != n {
			t.Fatalf("round %d over %d quanta: the loop run keeps %v", 40+r, n, run.Kept(op))
		}
		if rebuilt := run.Kept(op) != prev; rebuilt != (n != prevLen) {
			t.Fatalf("round %d: %d quanta after %d rebuilt the permutation: %v", 40+r, n, prevLen, rebuilt)
		}
		prev, prevLen = run.Kept(op), n
	}
}

// TestSampleLoopRunAllocations guards what the loop run saves: after round
// 0, a round's shuffle-first Sample allocates its k-quantum window and
// nothing of the n-position permutation, which a Sample outside any loop
// builds on every call.
func TestSampleLoopRunAllocations(t *testing.T) {
	const n, k, rounds = 2000, 50, 40
	op := shuffleFirstOp(k, 7)
	data := int64Quanta(n)
	bytesPerRound := func(run *core.LoopRun) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for r := 1; r <= rounds; r++ {
			Sample(op, data, core.Round{N: r, Run: run})
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / rounds
	}
	run := new(core.LoopRun)
	Sample(op, data, core.Round{Run: run}) // round 0 builds the permutation
	r := 1
	if allocs := testing.AllocsPerRun(rounds, func() {
		Sample(op, data, core.Round{N: r, Run: run})
		r++
	}); allocs > 1 {
		t.Fatalf("a round after round 0 makes %v allocations, want the window's one", allocs)
	}
	window := uint64(k) * uint64(unsafe.Sizeof(any(nil)))
	perm := uint64(n) * uint64(unsafe.Sizeof(0))
	kept, fresh := bytesPerRound(run), bytesPerRound(nil)
	t.Logf("per round: %d bytes in a loop run, %d outside; the window is %d bytes, the permutation %d", kept, fresh, window, perm)
	if kept > 2*window {
		t.Fatalf("a round in a loop run allocates %d bytes, over twice its %d-byte window", kept, window)
	}
	if fresh < perm {
		t.Fatalf("a Sample outside a loop allocates %d bytes, under its %d-byte permutation", fresh, perm)
	}
}

// BenchmarkSampleShuffleFirstRound is one round of the SGD workload's
// mini-batch draw (50 of 2000 points): kept in a loop run, and rebuilt per
// call as outside a loop.
func BenchmarkSampleShuffleFirstRound(b *testing.B) {
	op := shuffleFirstOp(50, 7)
	data := int64Quanta(2000)
	for _, bc := range []struct {
		name string
		run  *core.LoopRun
	}{{"loop-run", new(core.LoopRun)}, {"fresh", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Sample(op, data, core.Round{N: i, Run: bc.run})
			}
		})
	}
}
