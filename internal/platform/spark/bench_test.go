package spark

import (
	"testing"

	"rheem/internal/core"
)

func benchKVs(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = core.KV{Key: int64(i % 997), Value: int64(i)}
	}
	return out
}

// BenchmarkShuffle measures a full hash shuffle (map-side bucketing +
// exchange) over 100k quanta.
func BenchmarkShuffle(b *testing.B) {
	r := Partition(benchKVs(100000), 8)
	key := func(q any) any { return q.(core.KV).Key }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.shuffleBy(4, 8, key)
	}
}

// BenchmarkRangeShuffle measures the sampled range partitioning behind the
// parallel sort.
func BenchmarkRangeShuffle(b *testing.B) {
	data := make([]any, 100000)
	for i := range data {
		data[i] = int64((i * 7919) % 100000)
	}
	r := Partition(data, 8)
	less := func(a, c any) bool { return a.(int64) < c.(int64) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.rangeShuffle(4, 8, less)
	}
}
