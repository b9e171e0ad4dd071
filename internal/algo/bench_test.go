package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"rheem/internal/core"
)

// benchRows generates near-monotone (x, y) pairs with ~1% inversions: the
// selective-violation shape of the Tax denial constraint, where IEJoin's
// O(n log n + output) beats the O(n^2) nested loop.
func benchRows(n int, seed int64) []any {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]any, n)
	for i := range rows {
		x := rng.Float64() * 1000
		y := x * 0.3
		if rng.Float64() < 0.01 {
			y *= 0.5 // inversion: pays too little
		}
		rows[i] = [2]float64{x, y}
	}
	return rows
}

func nums(q any) (float64, float64) {
	v := q.([2]float64)
	return v[0], v[1]
}

// BenchmarkIEJoin measures the sort-based inequality join against input
// size (output is kept small via opposing conditions).
func BenchmarkIEJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(sizeName(n), func(b *testing.B) {
			left := benchRows(n, 1)
			right := benchRows(n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count := 0
				IEJoin(left, right, nums, nums, core.Greater, core.Less, func(l, r any) { count++ })
			}
		})
	}
}

// BenchmarkNestedLoopIE is the quadratic baseline the IEJoin replaces.
func BenchmarkNestedLoopIE(b *testing.B) {
	const n = 1000
	left := benchRows(n, 1)
	right := benchRows(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, lq := range left {
			lx, ly := nums(lq)
			for _, rq := range right {
				rx, ry := nums(rq)
				if lx > rx && ly < ry {
					count++
				}
			}
		}
	}
}

// BenchmarkReservoirSample measures one-pass exact-size sampling.
func BenchmarkReservoirSample(b *testing.B) {
	data := benchRows(100000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReservoirSample(data, 1000, int64(i))
	}
}

// BenchmarkShuffleFirstDraw measures the ML4all sampler's per-round draw.
func BenchmarkShuffleFirstDraw(b *testing.B) {
	data := benchRows(100000, 3)
	s := NewShuffleFirstSample(len(data), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Draw(data, 1000, i)
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }
