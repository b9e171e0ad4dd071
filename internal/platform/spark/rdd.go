// Package spark implements the Spark-analog platform: a partitioned
// bulk-synchronous engine. Datasets are RDDs — materialized partitions
// processed by a bounded pool of parallel workers — with broadcast side
// inputs, caching, and a simulated job/stage scheduling overhead calibrated
// (scaled-down) to cluster reality. How a blocking operator decomposes into
// exchange and per-partition kernel is shared with the other engines
// (driverutil.ApplyBlocking); spark contributes the pool it runs on and the
// latency every shuffle barrier pays. It wins on large inputs through
// parallel scans and shuffles and loses on small inputs to its startup
// latency, exactly the trade-off the paper exploits. On the shared platform
// frame (driverutil/platform.go) the package keeps what the archetype owns:
// Config, the RDD, the pool scheduler, per-block readers and the apply arms
// of sources, sinks, cache, cartesian and union.
package spark

import (
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
	Parts driverutil.Parts

	mu   sync.Mutex // guards Parts and flat: rows replaces Parts when it flattens
	flat [][]any    // the row view, once rows has taken it
}

// NewRDD wraps row partitions, each as a one-segment run.
func NewRDD(rows [][]any) *RDD { return &RDD{Parts: driverutil.RowSegments(rows), flat: rows} }

// parts returns the partitions as segment runs. The returned slice is never
// written again (rows swaps in a new one), so callers read it unlocked. Safe
// for concurrent callers: a reusable channel can feed parallel stages.
func (r *RDD) parts() driverutil.Parts {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Parts
}

// rows returns every partition row-major, the form the row-oriented
// operators take: driverutil.RowParts, taken once. A partition that is not
// already one row run is flattened then, and the RDD keeps the flattened form,
// so a batch-holding RDD pays the expansion once however many operators read
// it.
func (r *RDD) rows() [][]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flat == nil {
		r.flat = driverutil.RowParts(r.Parts)
		r.Parts = driverutil.RowSegments(r.flat)
	}
	return r.flat
}

// Partition splits data into n balanced partitions over data's own backing
// array. Nothing writes to a partition — a MapPart UDF is handed a copy
// (driverutil.ApplyBlocking) — and SplitSegments cuts with three-index
// slices, so appending to one partition can never bleed into the next one's
// data.
func Partition(data []any, n int) *RDD {
	return &RDD{Parts: driverutil.SplitSegments([]core.Segment{{Rows: data}}, n)}
}

// Count returns the total number of quanta.
func (r *RDD) Count() int64 { return r.parts().Count() }

// Collect concatenates all partitions in order.
func (r *RDD) Collect() []any { return r.parts().Collect() }

// channel wraps the RDD in one of spark's native channels. Which one is the
// plan's decision (the producing operator's or conversion's declared
// out-channel), never a property the data carries along.
func (r *RDD) channel(desc core.ChannelDescriptor) *core.Channel {
	return core.NewChannel(desc, r, r.Count())
}
