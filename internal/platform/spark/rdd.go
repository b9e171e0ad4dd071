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
	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// RDD is a partitioned in-memory dataset: one row run per partition.
type RDD struct {
	Parts driverutil.Parts
}

// NewRDD wraps row partitions.
func NewRDD(rows [][]any) *RDD { return &RDD{Parts: rows} }

// Partition splits data into n balanced partitions over data's own backing
// array. Nothing writes to a partition — a MapPart UDF is handed a copy
// (driverutil.ApplyBlocking) — and SplitRows cuts with three-index slices, so
// appending to one partition can never bleed into the next one's data.
func Partition(data []any, n int) *RDD {
	return &RDD{Parts: driverutil.SplitRows(data, n)}
}

// Count returns the total number of quanta.
func (r *RDD) Count() int64 { return r.Parts.Count() }

// Collect concatenates all partitions in order.
func (r *RDD) Collect() []any { return r.Parts.Collect() }

// channel wraps the RDD in one of spark's native channels. Which one is the
// plan's decision (the producing operator's or conversion's declared
// out-channel), never a property the data carries along.
func (r *RDD) channel(desc core.ChannelDescriptor) *core.Channel {
	return core.NewChannel(desc, r, r.Count())
}
