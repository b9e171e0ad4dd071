package spark

import (
	"fmt"
	"slices"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/simclock"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "spark"

// Config tunes the engine's parallelism and its simulated cluster latency.
type Config struct {
	// Parallelism is the worker pool width and default partition count.
	// Defaults to the number of CPUs.
	Parallelism int
	// Latency is the simulated cluster latency; the zero value is none and
	// Paper is the paper's testbed.
	Latency driverutil.Latency
}

// Paper is spark's latency on the paper's testbed, scaled down (roughly 20x)
// from typical on-premise cluster latencies so laptop-scale experiments keep
// the paper's cost shapes: the cluster context boots once, every stage
// dispatches a job, every shuffle is a barrier.
var Paper = driverutil.Latency{ContextMs: 150, StageMs: 12, BarrierMs: 4}

// UnitCosts implements core.UnitCoster: parallel scans, dear scheduling.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.22, MsPerIOUnit: 0.35, MsPerNetUnit: 1.2, MsPerFixed: 6, UsdPerHour: 12}
}

// Driver is the spark platform driver. The embedded Boot is its running
// latency and its core.StartupCoster.
type Driver struct {
	Conf Config
	DFS  *dfs.Store
	driverutil.Boot
}

// New creates a spark driver with the given DFS (optional) and no simulated
// latency.
func New(store *dfs.Store) *Driver { return NewWithConfig(store, Config{}) }

// NewWithConfig creates a spark driver with an explicit configuration.
func NewWithConfig(store *dfs.Store, conf Config) *Driver {
	conf.Parallelism = driverutil.DefaultWorkers(conf.Parallelism)
	return &Driver{Conf: conf, DFS: store, Boot: driverutil.Boot{Latency: conf.Latency}}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// RDDChannel is Spark's native channel: materialized in-memory partitions.
var RDDChannel = core.ChannelDescriptor{Name: "rdd", Platform: Platform, Reusable: true}

// CachedRDDChannel marks an explicitly cached RDD: data at rest, eligible
// as a progressive-optimization checkpoint.
var CachedRDDChannel = core.ChannelDescriptor{Name: "rdd-cached", Platform: Platform, Reusable: true, AtRest: true}

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	out := []core.ChannelDescriptor{RDDChannel, CachedRDDChannel}
	if d.DFS != nil {
		out = append(out, driverutil.DFSChannel)
	}
	return out
}

// Conversions implements core.Driver: the SparkParallelize / SparkCollect /
// SparkCache conversion operators of the paper, plus DFS load/save.
func (d *Driver) Conversions() []*core.Conversion {
	convs := []*core.Conversion{
		{
			Name: "spark.parallelize", From: "collection", To: "rdd",
			FixedCostMs: 3, PerQuantumMs: 0.0008,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				r, err := d.parallelize(in)
				if err != nil {
					return nil, err
				}
				return r.channel(RDDChannel), nil
			},
		},
		driverutil.Conv("spark.collect", "rdd", "collection", 2, 0.0008, func(r *RDD, _ *core.Channel) (*core.Channel, error) {
			return driverutil.CollectionOf(r.Collect()), nil
		}),
		driverutil.Conv("spark.cache", "rdd", "rdd-cached", 1, 0.0002, func(r *RDD, _ *core.Channel) (*core.Channel, error) {
			return r.channel(CachedRDDChannel), nil
		}),
		driverutil.Conv("spark.uncache", "rdd-cached", "rdd", 0.1, 0, func(r *RDD, in *core.Channel) (*core.Channel, error) {
			return core.NewChannel(RDDChannel, r, in.Card), nil
		}),
	}
	if d.DFS != nil {
		convs = append(convs,
			driverutil.Conv("spark.dfs-load", "dfs", "rdd", 6, 0.002, func(path string, _ *core.Channel) (*core.Channel, error) {
				r, err := d.loadDFSQuanta(path)
				if err != nil {
					return nil, err
				}
				return r.channel(RDDChannel), nil
			}),
			driverutil.Conv("spark.dfs-save", "rdd", "dfs", 8, 0.003, func(r *RDD, in *core.Channel) (*core.Channel, error) {
				return driverutil.SaveDFS(d.DFS, "spark-", in, r.Collect())
			}),
		)
	}
	return convs
}

// parallelize carries a collection-typed channel to partitions, split as the
// quanta lie: a slice its producer still owns (a plan's collection, a
// result-cache payload) is read in place, never written (see "ownership of
// partitions" in driverutil/blocking.go).
func (d *Driver) parallelize(ch *core.Channel) (*RDD, error) {
	data, err := driverutil.ChannelSlice(ch)
	if err != nil {
		return nil, err
	}
	return Partition(data, d.Conf.Parallelism), nil
}

// RegisterMappings implements core.Driver: the general kinds, the cache
// operator under the name that keeps it apart from the spark.cache conversion.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	ops := append(driverutil.Without(driverutil.GeneralOps, core.KindCache), driverutil.Op{Kind: core.KindCache, Suffix: "cache-op", Out: "rdd-cached", Cost: driverutil.CacheCost})
	driverutil.RegisterOps(r, Platform, []string{"rdd", "rdd-cached"}, "rdd", ops)
}

// Execute implements core.Driver: the stage over the RDD engine.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	return driverutil.Execute(&d.Boot, &engine{driver: d, clock: in.Clock}, stage, in)
}

// engine is also the driverutil.Scheduler of spark's blocking operators: work
// items run on the worker pool and every shuffle is a Latency barrier, charged
// on the stage's clock.
type engine struct {
	driver *Driver
	clock  *simclock.Clock
}

func (e *engine) width() int { return e.driver.Conf.Parallelism }

// Each implements driverutil.Scheduler.
func (e *engine) Each(n int, fn func(i int) error) error {
	return driverutil.Parallel(n, e.width(), fn)
}

// Barrier implements driverutil.Scheduler.
func (e *engine) Barrier() { e.driver.Barrier(e.clock) }

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (*RDD, error) {
	switch ch.Desc.Name {
	case "rdd", "rdd-cached":
		r, ok := ch.Payload.(*RDD)
		if !ok {
			return nil, fmt.Errorf("spark: channel %s payload %T", ch.Desc.Name, ch.Payload)
		}
		return r, nil
	case "collection", "file":
		return e.driver.parallelize(ch)
	case "dfs":
		path, ok := ch.Payload.(string)
		if !ok {
			return nil, fmt.Errorf("spark: channel dfs payload %T", ch.Payload)
		}
		return e.driver.loadDFSQuanta(path)
	default:
		return nil, fmt.Errorf("spark: unsupported input channel %q", ch.Desc.Name)
	}
}

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, r *RDD) (*core.Channel, error) {
	switch op.Kind {
	case core.KindCollectionSink:
		return driverutil.CollectionOf(r.Collect()), nil
	case core.KindCache:
		return r.channel(CachedRDDChannel), nil
	}
	return r.channel(RDDChannel), nil
}

// Apply implements driverutil.Engine. Without a sniffer the output is counted
// as it lies; nothing is flattened just to be counted.
func (e *engine) Apply(op *core.Operator, in []*RDD, round int, counter *int64, sniff func(any)) (*RDD, error) {
	out, err := e.apply(op, in, round)
	if err != nil {
		return nil, err
	}
	if sniff == nil {
		*counter = out.Count()
	} else {
		driverutil.Observe(out.Parts, counter, sniff)
	}
	return out, nil
}

// ApplyChain implements driverutil.ChainEngine: the whole chain runs as one
// pool dispatch over the partitions as they lie — one scheduling round and
// zero intermediate RDD materializations for a stage of k narrow ops — and a
// chain ending in a reduce-by is the spark map-side combine (see
// driverutil.RunChainParts).
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, in *RDD, counters []*int64) (*RDD, error) {
	return NewRDD(driverutil.RunChainParts(e, kernel, in.Parts, counters)), nil
}

// apply evaluates the kinds spark's archetype owns — sources, sinks, cache,
// cartesian and union; every other kind is the default arm,
// driverutil.ApplyBlocking over the inputs' row partitions.
func (e *engine) apply(op *core.Operator, in []*RDD, round int) (*RDD, error) {
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 { // loop-input placeholder
			return in[0], nil
		}
		return Partition(op.Params.Collection, e.width()), nil

	case core.KindTextFileSource:
		// textFile's input splits: at least one per worker once the file
		// holds width² bytes, however few blocks it has, read and cut on
		// the pool (see driverutil.ReadTextParts).
		parts, err := driverutil.ReadTextParts(e, e.driver.DFS, op.Params.Path, e.width())
		if err != nil {
			return nil, err
		}
		return NewRDD(parts), nil

	case core.KindCache:
		return &RDD{Parts: in[0].Parts}, nil

	case core.KindCartesian:
		combine := driverutil.Combine(op)
		lp, rp := in[0].Parts, in[1].Parts
		n := len(lp) * len(rp)
		out := make([][]any, n)
		driverutil.Do(e, n, func(i int) {
			l, r := lp[i/len(rp)], rp[i%len(rp)]
			var res []any
			for _, a := range l {
				for _, b := range r {
					res = append(res, combine(a, b))
				}
			}
			out[i] = res
		})
		return NewRDD(out), nil

	case core.KindUnion:
		return &RDD{Parts: append(slices.Clone(in[0].Parts), in[1].Parts...)}, nil

	case core.KindCollectionSink:
		return in[0], nil

	case core.KindTextFileSink:
		if err := driverutil.WriteTextLines(e.driver.DFS, op, in[0].Collect()); err != nil {
			return nil, err
		}
		return in[0], nil

	default:
		ins := make([][][]any, len(in))
		for i, r := range in {
			ins[i] = r.Parts
		}
		out, err := driverutil.ApplyBlocking(e, op, round, ins)
		if err != nil {
			return nil, err
		}
		return NewRDD(out), nil
	}
}

func (d *Driver) loadDFSQuanta(path string) (*RDD, error) {
	if d.DFS == nil {
		return nil, fmt.Errorf("spark: no DFS configured for %s", path)
	}
	name := dfs.TrimScheme(path)
	_, blocks, err := d.DFS.Stat(name)
	if err != nil {
		return nil, err
	}
	// Each block split is decoded by its own worker; the partitions are the
	// block splits.
	parts := make([][]any, len(blocks))
	err = driverutil.Parallel(len(blocks), d.Conf.Parallelism, func(i int) (err error) {
		parts[i], err = driverutil.ReadDFSQuantaBlock(d.DFS, name, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return NewRDD(parts), nil
}
