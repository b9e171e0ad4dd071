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

// Config tunes parallelism and the simulated cluster latency.
type Config struct {
	// Parallelism is the number of parallel operator instances.
	Parallelism int
	// Latency is the simulated cluster latency; the zero value is none and
	// Paper is the paper's testbed.
	Latency driverutil.Latency
}

// Paper is flink's latency on the paper's testbed: a session cluster that
// boots once, then cheaper job dispatch and exchanges than spark's.
var Paper = driverutil.Latency{ContextMs: 80, StageMs: 6, BarrierMs: 2}

// UnitCosts implements core.UnitCoster: dearer quanta, cheaper scheduling than spark.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.38, MsPerIOUnit: 0.35, MsPerNetUnit: 1.1, MsPerFixed: 3, UsdPerHour: 10}
}

// Driver is the flink platform driver. The embedded Boot is its running
// latency and its core.StartupCoster.
type Driver struct {
	Conf Config
	DFS  *dfs.Store
	driverutil.Boot
}

// New creates a flink driver with no simulated latency.
func New(store *dfs.Store) *Driver { return NewWithConfig(store, Config{}) }

// NewWithConfig creates a flink driver with an explicit configuration.
func NewWithConfig(store *dfs.Store, conf Config) *Driver {
	conf.Parallelism = driverutil.DefaultWorkers(conf.Parallelism)
	return &Driver{Conf: conf, DFS: store, Boot: driverutil.Boot{Latency: conf.Latency}}
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

// DataSet is the materialized form of a flow: one partition per parallel
// instance.
type DataSet struct{ driverutil.Parts }

// dataset cuts data into one balanced partition per parallel instance.
func (d *Driver) dataset(data []any) *DataSet {
	return &DataSet{driverutil.SplitRows(data, d.Conf.Parallelism)}
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
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				return d.dataset(data).channel(), nil
			},
		},
		driverutil.Conv("flink.collect", "dataset", "collection", 2, 0.0008, func(ds *DataSet, _ *core.Channel) (*core.Channel, error) {
			return driverutil.CollectionOf(ds.Collect()), nil
		}),
	}
	if d.DFS != nil {
		convs = append(convs, driverutil.Conv("flink.dfs-load", "dfs", "dataset", 7, 0.002, func(path string, _ *core.Channel) (*core.Channel, error) {
			data, err := driverutil.ReadDFSQuanta(d.DFS, path)
			if err != nil {
				return nil, err
			}
			return d.dataset(data).channel(), nil
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
	return driverutil.Execute(&d.Boot, &engine{driver: d, stage: stage, clock: in.Clock}, stage, in)
}
