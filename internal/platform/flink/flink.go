// Package flink implements the Flink-analog platform: a pipelined parallel
// dataflow engine. Datasets flow as P parallel Go channels driven by
// producer goroutines; narrow operators (map, filter, flatMap, ...) chain
// onto the channels without materialization, so a pipeline of narrow
// operators is one pass regardless of its length. Blocking operators
// materialize their inputs and decompose as on every engine
// (driverutil.ApplyBlocking — the exchange is the same bucket scatter/gather
// spark's shuffle is), on one goroutine per instance. What differs from the
// spark engine is the execution model: it pipelines lazily instead of
// materializing per operator and has lower start-up and exchange latency,
// but its per-quantum channel sends cost more than spark's slice scans — a
// genuinely different performance profile, so neither engine dominates
// (Figure 9 of the paper).
package flink

import (
	"fmt"
	"runtime"
	"sync"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "flink"

// Config tunes parallelism and simulated scheduling overheads. The overhead
// fields treat 0 as "use the default"; pass any negative value (e.g.
// NoOverheadMs) for a genuinely overhead-free configuration.
type Config struct {
	// Parallelism is the number of parallel operator instances.
	Parallelism int
	// ContextStartupMs is paid on the first job (session cluster boot).
	// Default 80; negative means none.
	ContextStartupMs float64
	// JobStartupMs is paid per dispatched job. Default 6; negative means
	// none.
	JobStartupMs float64
	// ExchangeLatencyMs is paid per network exchange (wide dependency).
	// Default 2; negative means none.
	ExchangeLatencyMs float64
}

// NoOverheadMs is the sentinel for "this overhead is really zero" in Config
// fields whose zero value means "use the default".
const NoOverheadMs = driverutil.NoOverheadMs

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
		if c.Parallelism < 4 {
			c.Parallelism = 4 // partitions interleave when the host is smaller
		}
	}
	c.ContextStartupMs = driverutil.OverheadMs(c.ContextStartupMs, 80)
	c.JobStartupMs = driverutil.OverheadMs(c.JobStartupMs, 6)
	c.ExchangeLatencyMs = driverutil.OverheadMs(c.ExchangeLatencyMs, 2)
	return c
}

// Driver is the flink platform driver.
type Driver struct {
	Conf Config
	DFS  *dfs.Store

	mu     sync.Mutex
	booted bool
}

// New creates a flink driver with defaults.
func New(store *dfs.Store) *Driver { return NewWithConfig(store, Config{}) }

// NewWithConfig creates a flink driver with an explicit configuration.
func NewWithConfig(store *dfs.Store, conf Config) *Driver {
	return &Driver{Conf: conf.withDefaults(), DFS: store}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// StartupCostMs implements core.StartupCoster.
func (d *Driver) StartupCostMs() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.booted {
		return d.Conf.ContextStartupMs + d.Conf.JobStartupMs
	}
	return d.Conf.JobStartupMs
}

// DataSetChannel is Flink's native channel: a materialized parallel
// dataset ready to feed another flink job.
var DataSetChannel = core.ChannelDescriptor{Name: "dataset", Platform: Platform, Reusable: true}

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	out := []core.ChannelDescriptor{DataSetChannel}
	if d.DFS != nil {
		out = append(out, core.ChannelDescriptor{Name: "dfs", Reusable: true, AtRest: true})
	}
	return out
}

// DataSet is the materialized form of a flow: one segment run per parallel
// instance.
type DataSet struct {
	Parts [][]core.Segment
}

// Count returns the total number of quanta.
func (ds *DataSet) Count() int64 {
	var n int64
	for _, part := range ds.Parts {
		for _, s := range part {
			n += int64(s.Len())
		}
	}
	return n
}

// Collect concatenates all partitions.
func (ds *DataSet) Collect() []any {
	out := make([]any, 0, ds.Count())
	for _, part := range ds.Parts {
		for _, s := range part {
			out = s.AppendRows(out)
		}
	}
	return out
}

// Conversions implements core.Driver.
func (d *Driver) Conversions() []*core.Conversion {
	convs := []*core.Conversion{
		{
			Name: "flink.from-collection", From: "collection", To: "dataset",
			FixedCostMs: 2, PerQuantumMs: 0.0008,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				segs, err := driverutil.ChannelSegments(in)
				if err != nil {
					return nil, err
				}
				ds := &DataSet{Parts: driverutil.SplitSegments(segs, d.Conf.Parallelism)}
				return core.NewChannel(DataSetChannel, ds, ds.Count()), nil
			},
		},
		{
			Name: "flink.collect", From: "dataset", To: "collection",
			FixedCostMs: 2, PerQuantumMs: 0.0008,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				ds, ok := in.Payload.(*DataSet)
				if !ok {
					return nil, fmt.Errorf("flink.collect: payload %T", in.Payload)
				}
				data := ds.Collect()
				return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
			},
		},
	}
	if d.DFS != nil {
		convs = append(convs, &core.Conversion{
			Name: "flink.dfs-load", From: "dfs", To: "dataset",
			FixedCostMs: 7, PerQuantumMs: 0.002,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				segs, err := driverutil.ReadDFSQuantaSegments(d.DFS, in.Payload.(string))
				if err != nil {
					return nil, err
				}
				ds := &DataSet{Parts: driverutil.SplitSegments(segs, d.Conf.Parallelism)}
				return core.NewChannel(DataSetChannel, ds, ds.Count()), nil
			},
		})
	}
	return convs
}

// RegisterMappings implements core.Driver.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	one := func(k core.Kind, name string) {
		r.Register(k, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{{
			Name: name, Platform: Platform, Kind: k,
			In: []string{"dataset"}, Out: "dataset",
		}}})
	}
	one(core.KindCollectionSource, "flink.collection-source")
	one(core.KindTextFileSource, "flink.textfile-source")
	one(core.KindMap, "flink.map")
	one(core.KindFlatMap, "flink.flatmap")
	one(core.KindFilter, "flink.filter")
	one(core.KindMapPart, "flink.map-partitions")
	one(core.KindSample, "flink.sample")
	one(core.KindDistinct, "flink.distinct")
	one(core.KindSort, "flink.sort")
	one(core.KindCount, "flink.count")
	one(core.KindReduce, "flink.reduce")
	one(core.KindReduceBy, "flink.reduce-by")
	one(core.KindGroupBy, "flink.group-by")
	one(core.KindZipWithID, "flink.zip-with-id")
	one(core.KindCache, "flink.cache")
	one(core.KindProject, "flink.project")
	one(core.KindJoin, "flink.join")
	one(core.KindIEJoin, "flink.iejoin")
	one(core.KindCartesian, "flink.cartesian")
	one(core.KindUnion, "flink.union")
	one(core.KindIntersect, "flink.intersect")
	one(core.KindCoGroup, "flink.co-group")
	one(core.KindPageRank, "flink.pagerank")
	one(core.KindCollectionSink, "flink.collection-sink")
	one(core.KindTextFileSink, "flink.textfile-sink")
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	d.mu.Lock()
	boot := !d.booted
	d.booted = true
	d.mu.Unlock()
	if boot {
		driverutil.SleepMs(d.Conf.ContextStartupMs)
	}
	driverutil.SleepMs(d.Conf.JobStartupMs)
	return driverutil.RunStage(&engine{driver: d, stage: stage}, stage, in)
}
