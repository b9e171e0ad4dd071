// Package spark implements the Spark-analog platform: a partitioned
// bulk-synchronous engine. Datasets are RDDs — materialized partitions
// processed by a pool of parallel workers — with real hash shuffles between
// wide operators, broadcast side inputs, caching, and a simulated job/stage
// scheduling overhead calibrated (scaled-down) to cluster reality. It wins
// on large inputs through parallel scans and shuffles and loses on small
// inputs to its startup latency, exactly the trade-off the paper exploits.
package spark

import (
	"sort"
	"sync"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// RDD is a partitioned in-memory dataset. A partition is a segment run: row
// runs interleaved with column batches as decoded off quanta files and DFS
// blocks, or the one-segment run {Rows: part} an operator produced. The
// chain kernel takes partitions as they are; the row-oriented operators go
// through rows, which flattens a batch-holding partition once.
type RDD struct {
	Parts  [][]core.Segment
	Cached bool

	mu sync.Mutex // guards Parts: rows replaces it when it flattens
}

// NewRDD wraps row partitions, each as a one-segment run.
func NewRDD(rows [][]any) *RDD { return &RDD{Parts: driverutil.RowSegments(rows)} }

// parts returns the partitions as segment runs. The returned slice is never
// written again (rows swaps in a new one), so callers read it unlocked. Safe
// for concurrent callers: a reusable channel can feed parallel stages.
func (r *RDD) parts() [][]core.Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Parts
}

// rows returns every partition row-major, the form the row-oriented
// operators take. Partitions that are not already one row run are flattened
// and kept that way, so a batch-holding RDD pays the expansion once however
// many operators read it.
func (r *RDD) rows() [][]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]any, len(r.Parts))
	flat := true
	for i, segs := range r.Parts {
		if len(segs) == 1 && segs[0].Batch == nil {
			out[i] = segs[0].Rows
		} else if len(segs) > 0 {
			out[i] = core.SegmentRows(segs)
			flat = false
		}
	}
	if !flat {
		r.Parts = driverutil.RowSegments(out)
	}
	return out
}

// Partition splits data into n balanced partitions. The partitions get
// their own backing array: callers hand in slices they still own (cached
// plan collections, result-cache payloads), and partitions flow into user
// code that may write to them (a MapPart UDF) — aliasing the input would
// corrupt it. SplitSegments cuts with three-index slices, so appending to
// one partition can never bleed into the next one's data.
func Partition(data []any, n int) *RDD {
	owned := make([]any, len(data))
	copy(owned, data)
	return &RDD{Parts: driverutil.SplitSegments([]core.Segment{{Rows: owned}}, n)}
}

// Count returns the total number of quanta.
func (r *RDD) Count() int64 {
	var n int64
	for _, part := range r.parts() {
		for _, s := range part {
			n += int64(s.Len())
		}
	}
	return n
}

// Collect concatenates all partitions in order.
func (r *RDD) Collect() []any {
	parts := r.parts()
	out := make([]any, 0, r.Count())
	for _, part := range parts {
		for _, s := range part {
			out = s.AppendRows(out)
		}
	}
	return out
}

// pool runs fn(i) for i in [0, n) on up to width workers.
func pool(n, width int, fn func(i int)) {
	if width < 1 {
		width = 1
	}
	if width > n {
		width = n
	}
	if n == 0 {
		return
	}
	if width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Guard each work item: a panicking UDF must fail the stage (via
	// Rethrow on the caller, under driverutil.RunStage's recover), not
	// kill the process — and the worker must keep draining next so the
	// feeding loop below never deadlocks.
	var trap driverutil.Trap
	call := func(i int) {
		defer trap.Guard()
		fn(i)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	trap.Rethrow()
}

// poolErr is pool for work items that can fail; it returns the first error.
func poolErr(n, width int, fn func(i int) error) error {
	var mu sync.Mutex
	var firstErr error
	pool(n, width, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// mapPartitions applies fn to every partition in parallel.
func (r *RDD) mapPartitions(width int, fn func(part []any) []any) *RDD {
	parts := r.rows()
	out := make([][]any, len(parts))
	pool(len(parts), width, func(i int) { out[i] = fn(parts[i]) })
	return NewRDD(out)
}

// shuffleBy hash-partitions all quanta by key into p output partitions
// (a full shuffle: map-side bucketing in parallel, then bucket exchange).
func (r *RDD) shuffleBy(width, p int, key func(any) any) *RDD {
	parts := r.rows()
	if p < 1 {
		p = 1
	}
	// Map side: each input partition scatters into p buckets.
	buckets := make([][][]any, len(parts))
	pool(len(parts), width, func(i int) {
		local := make([][]any, p)
		for _, q := range parts[i] {
			h := driverutil.HashKey(core.GroupKey(key(q))) % uint64(p)
			local[h] = append(local[h], q)
		}
		buckets[i] = local
	})
	// Reduce side: partition j gathers bucket j of every map task.
	out := make([][]any, p)
	pool(p, width, func(j int) {
		var part []any
		for i := range buckets {
			part = append(part, buckets[i][j]...)
		}
		out[j] = part
	})
	return NewRDD(out)
}

// rangeShuffle redistributes quanta into ordered ranges using sampled
// splitters under less, the building block of the parallel sort.
func (r *RDD) rangeShuffle(width, p int, less func(a, b any) bool) *RDD {
	parts := r.rows()
	if p < 1 {
		p = 1
	}
	// Sample up to 20 quanta per partition for splitter selection.
	var sample []any
	for _, part := range parts {
		step := len(part)/20 + 1
		for i := 0; i < len(part); i += step {
			sample = append(sample, part[i])
		}
	}
	core.SortAny(sample, less)
	splitters := make([]any, 0, p-1)
	for i := 1; i < p; i++ {
		idx := i * len(sample) / p
		if idx < len(sample) {
			splitters = append(splitters, sample[idx])
		}
	}
	place := func(q any) int {
		lo := sort.Search(len(splitters), func(i int) bool { return less(q, splitters[i]) })
		return lo
	}
	buckets := make([][][]any, len(parts))
	pool(len(parts), width, func(i int) {
		local := make([][]any, p)
		for _, q := range parts[i] {
			j := place(q)
			local[j] = append(local[j], q)
		}
		buckets[i] = local
	})
	out := make([][]any, p)
	pool(p, width, func(j int) {
		var part []any
		for i := range buckets {
			part = append(part, buckets[i][j]...)
		}
		out[j] = part
	})
	return NewRDD(out)
}
