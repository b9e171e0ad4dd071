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
// (Figure 9 of the paper). On the shared platform frame
// (driverutil/platform.go) the package keeps what the archetype owns: Config,
// the lazy flow with its errBox, narrow, streamChain and the apply arms.
package flink

import (
	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "flink"

// Config tunes parallelism and simulated scheduling overheads. The overhead
// fields treat 0 as "use the default"; pass any negative value (e.g.
// driverutil.NoOverheadMs) for a genuinely overhead-free configuration.
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

func (c Config) withDefaults() Config {
	c.Parallelism = driverutil.DefaultWorkers(c.Parallelism)
	c.ContextStartupMs = driverutil.OverheadMs(c.ContextStartupMs, 80)
	c.JobStartupMs = driverutil.OverheadMs(c.JobStartupMs, 6)
	c.ExchangeLatencyMs = driverutil.OverheadMs(c.ExchangeLatencyMs, 2)
	return c
}

// UnitCosts implements core.UnitCoster: dearer quanta, cheaper scheduling than spark.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.38, MsPerIOUnit: 0.35, MsPerNetUnit: 1.1, MsPerFixed: 3, UsdPerHour: 10}
}

// Driver is the flink platform driver. The embedded Boot is its start-up
// charge and its core.StartupCoster.
type Driver struct {
	Conf Config
	DFS  *dfs.Store
	driverutil.Boot
}

// New creates a flink driver with defaults.
func New(store *dfs.Store) *Driver { return NewWithConfig(store, Config{}) }

// NewWithConfig creates a flink driver with an explicit configuration.
func NewWithConfig(store *dfs.Store, conf Config) *Driver {
	conf = conf.withDefaults()
	return &Driver{Conf: conf, DFS: store, Boot: driverutil.Boot{ContextMs: conf.ContextStartupMs, JobMs: conf.JobStartupMs}}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// DataSetChannel is Flink's native channel: a materialized parallel
// dataset ready to feed another flink job.
var DataSetChannel = core.ChannelDescriptor{Name: "dataset", Platform: Platform, Reusable: true}

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	out := []core.ChannelDescriptor{DataSetChannel}
	if d.DFS != nil {
		out = append(out, driverutil.DFSChannel)
	}
	return out
}

// DataSet is the materialized form of a flow: one segment run per parallel
// instance.
type DataSet struct{ driverutil.Parts }

// dataset cuts a segment run into one balanced run per parallel instance.
func (d *Driver) dataset(segs []core.Segment) *DataSet {
	return &DataSet{driverutil.SplitSegments(segs, d.Conf.Parallelism)}
}

// channel wraps a dataset in flink's native channel.
func (ds *DataSet) channel() *core.Channel { return core.NewChannel(DataSetChannel, ds, ds.Count()) }

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
				return d.dataset(segs).channel(), nil
			},
		},
		driverutil.Conv("flink.collect", "dataset", "collection", 2, 0.0008, func(ds *DataSet, _ *core.Channel) (*core.Channel, error) {
			return driverutil.CollectionOf(ds.Collect()), nil
		}),
	}
	if d.DFS != nil {
		convs = append(convs, driverutil.Conv("flink.dfs-load", "dfs", "dataset", 7, 0.002, func(path string, _ *core.Channel) (*core.Channel, error) {
			segs, err := driverutil.ReadDFSQuantaSegments(d.DFS, path)
			if err != nil {
				return nil, err
			}
			return d.dataset(segs).channel(), nil
		}))
	}
	return convs
}

// RegisterMappings implements core.Driver.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	driverutil.RegisterOps(r, Platform, []string{"dataset"}, "dataset", driverutil.GeneralOps)
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	d.Charge()
	return driverutil.RunStage(&engine{driver: d, stage: stage}, stage, in)
}
