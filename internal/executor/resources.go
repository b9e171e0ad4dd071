package executor

import (
	"runtime/metrics"
	"time"

	"rheem/internal/core"
)

// Per-wave resource accounting for job profiles. Go exposes CPU time and
// allocation totals per process, not per goroutine, so the executor samples
// the process-level counters around each wave and attributes the deltas to
// the wave's stages proportionally to their wall time — exact when a wave
// runs one stage, an attribution (not a measurement) when stages overlap or
// when concurrent jobs share the process. Codec bytes come from the framed
// binary codec's own counter (core.CodecBytesMoved) and follow the same
// attribution.

const (
	cpuMetric   = "/cpu/classes/user:cpu-seconds"
	allocMetric = "/gc/heap/allocs:bytes"
)

// Usage is one reading of the process-level resource counters.
type Usage struct {
	cpuSeconds float64
	cpuOK      bool
	allocBytes uint64
	allocOK    bool
	codecBytes int64
}

// SampleUsage reads the process-level resource counters. The sample slice
// is allocated per call: concurrent jobs (and nested loop-body executions)
// sample independently. A fleet worker brackets the one stage it runs with
// the same two readings.
func SampleUsage() Usage {
	samples := []metrics.Sample{{Name: cpuMetric}, {Name: allocMetric}}
	metrics.Read(samples)
	out := Usage{codecBytes: core.CodecBytesMoved()}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		out.cpuSeconds, out.cpuOK = samples[0].Value.Float64(), true
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes, out.allocOK = samples[1].Value.Uint64(), true
	}
	return out
}

// Since returns how far the counters moved between before and after: CPU
// time, allocated bytes and codec bytes (0 where a counter is unavailable).
func (after Usage) Since(before Usage) (cpu time.Duration, alloc, codec int64) {
	if before.cpuOK && after.cpuOK && after.cpuSeconds > before.cpuSeconds {
		cpu = time.Duration((after.cpuSeconds - before.cpuSeconds) * float64(time.Second))
	}
	if before.allocOK && after.allocOK && after.allocBytes > before.allocBytes {
		alloc = int64(after.allocBytes - before.allocBytes)
	}
	if after.codecBytes > before.codecBytes {
		codec = after.codecBytes - before.codecBytes
	}
	return cpu, alloc, codec
}

// attributeUsage distributes the counter deltas between before and after
// across the wave's stage stats, proportional to each stage's wall time.
func attributeUsage(before, after Usage, stats []*core.StageStats) {
	if len(stats) == 0 {
		return
	}
	cpu, alloc, codec := after.Since(before)
	var wall time.Duration
	for _, st := range stats {
		wall += st.Runtime
	}
	if wall <= 0 {
		// Degenerate sub-resolution stages: split evenly.
		n := int64(len(stats))
		for _, st := range stats {
			st.CPUTime = cpu / time.Duration(n)
			st.AllocBytes = alloc / n
			st.BytesMoved = codec / n
		}
		return
	}
	for _, st := range stats {
		share := float64(st.Runtime) / float64(wall)
		st.CPUTime = time.Duration(float64(cpu) * share)
		st.AllocBytes = int64(float64(alloc) * share)
		st.BytesMoved = int64(float64(codec) * share)
	}
}
