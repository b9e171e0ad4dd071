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

// RDD is a partitioned in-memory dataset. Partitions are either row-major
// (Parts) or batch-native (Segs: column batches interleaved with row runs,
// as decoded off quanta files and DFS blocks). Segment-backed partitions
// have exactly the row boundaries Partition would produce, and materialize
// lazily on first row-oriented access — batch-aware paths (ApplyChain) run
// them without the row round-trip.
type RDD struct {
	Parts  [][]any
	Cached bool

	mu   sync.Mutex // guards lazy materialization of Segs into Parts
	Segs [][]core.Segment
}

// NewRDD wraps existing partitions.
func NewRDD(parts [][]any) *RDD { return &RDD{Parts: parts} }

// NewSegRDD wraps batch-native partitions.
func NewSegRDD(segs [][]core.Segment) *RDD { return &RDD{Segs: segs} }

// materialize fills Parts from Segs on first row-oriented access. Safe for
// concurrent callers (a reusable channel can feed parallel stages).
func (r *RDD) materialize() *RDD {
	if r.Segs == nil {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Parts == nil {
		parts := make([][]any, len(r.Segs))
		for i, segs := range r.Segs {
			parts[i] = driverutil.SegmentRows(segs)
		}
		r.Parts = parts
	}
	return r
}

// segments returns every partition as a segment run, the one form the chain
// kernel takes: the batch-native partitions while the RDD still carries them
// unmaterialized, else each row partition as the one-segment run {Rows: part}.
func (r *RDD) segments() [][]core.Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Parts == nil && r.Segs != nil {
		return r.Segs
	}
	segs := make([][]core.Segment, len(r.Parts))
	for i, part := range r.Parts {
		segs[i] = []core.Segment{{Rows: part}}
	}
	return segs
}

// Partition splits data into n balanced partitions. The partitions get
// their own backing array: callers hand in slices they still own (cached
// plan collections, result-cache payloads), and partitions flow into
// kernels that may compact in place — aliasing the input would corrupt it.
func Partition(data []any, n int) *RDD {
	if n < 1 {
		n = 1
	}
	parts := make([][]any, n)
	if len(data) == 0 {
		return &RDD{Parts: parts}
	}
	owned := make([]any, len(data))
	copy(owned, data)
	chunk := (len(data) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * chunk
		if lo >= len(data) {
			break
		}
		hi := lo + chunk
		if hi > len(data) {
			hi = len(data)
		}
		// Three-index slices so appending to one partition can never bleed
		// into the next one's data.
		parts[i] = owned[lo:hi:hi]
	}
	return &RDD{Parts: parts}
}

// Count returns the total number of quanta.
func (r *RDD) Count() int64 {
	var n int64
	for _, part := range r.segments() {
		for _, s := range part {
			n += int64(s.Len())
		}
	}
	return n
}

// Collect concatenates all partitions in order.
func (r *RDD) Collect() []any {
	r.materialize()
	out := make([]any, 0, r.Count())
	for _, p := range r.Parts {
		out = append(out, p...)
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
	r.materialize()
	out := make([][]any, len(r.Parts))
	pool(len(r.Parts), width, func(i int) { out[i] = fn(r.Parts[i]) })
	return NewRDD(out)
}

// shuffleBy hash-partitions all quanta by key into p output partitions
// (a full shuffle: map-side bucketing in parallel, then bucket exchange).
func (r *RDD) shuffleBy(width, p int, key func(any) any) *RDD {
	r.materialize()
	if p < 1 {
		p = 1
	}
	// Map side: each input partition scatters into p buckets.
	buckets := make([][][]any, len(r.Parts))
	pool(len(r.Parts), width, func(i int) {
		local := make([][]any, p)
		for _, q := range r.Parts[i] {
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
	r.materialize()
	if p < 1 {
		p = 1
	}
	// Sample up to 20 quanta per partition for splitter selection.
	var sample []any
	for _, part := range r.Parts {
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
	buckets := make([][][]any, len(r.Parts))
	pool(len(r.Parts), width, func(i int) {
		local := make([][]any, p)
		for _, q := range r.Parts[i] {
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
