// Package streams implements the JavaStreams-analog platform: a
// single-threaded, pull-based iterator engine with zero startup cost. Every
// run of narrow operators (map, filter, flatMap, project) executes as one
// pass of the compiled chain kernel; the streaming operators (union,
// cartesian) chain lazily as iterators; every other operator (sort, group,
// join, map-partitions, zip-with-id, sample, ...) reads data at rest where it
// lies, drains a lazy pipeline, and runs as driverutil.ApplyBlocking over a
// single partition — no exchange, no barrier. It is the "no overhead, no parallelism" corner of the platform
// space: unbeatable on small inputs, bound by one core on large ones. On the
// shared platform frame (driverutil/platform.go) the package keeps the pipe,
// its lazy apply arms and the four neutral collection/file/DFS conversions.
package streams

import (
	"fmt"
	"os"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
)

// Platform is the platform name this driver registers under.
const Platform = "streams"

// Driver is the streams platform driver.
type Driver struct {
	// DFS gives access to dfs:// paths; optional.
	DFS *dfs.Store
	// TempDir hosts spilled file channels; defaults to the OS temp dir.
	TempDir string
	// SimSlowdown stretches stage runtimes to model a single cluster node's
	// capacity relative to the host substrate (which plays the whole
	// cluster for the parallel engines). Default 4; 1 disables.
	SimSlowdown float64
}

// New creates a streams driver with the default single-node capacity model.
func New(store *dfs.Store) *Driver { return &Driver{DFS: store, SimSlowdown: 4} }

// UnitCosts implements core.UnitCoster: one thread on the already-paid driver machine.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1, UsdPerHour: 0.5}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// ChannelDescriptors implements core.Driver: streams owns no channels of
// its own (it speaks the platform-neutral collection and file channels) but
// declares the neutral DFS channel when a DFS store is attached.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	if d.DFS == nil {
		return nil
	}
	return []core.ChannelDescriptor{driverutil.DFSChannel}
}

// Conversions implements core.Driver: streams contributes the neutral
// collection <-> file conversions (it is the driver-side engine).
func (d *Driver) Conversions() []*core.Conversion {
	convs := []*core.Conversion{
		{
			Name: "streams.spill", From: "collection", To: "file",
			FixedCostMs: 1, PerQuantumMs: 0.004,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				path, err := tempFile(d.TempDir, "rheem-spill-*.rqb")
				if err != nil {
					return nil, err
				}
				if err := core.WriteQuantaFile(path, data); err != nil {
					return nil, err
				}
				return core.NewChannel(core.FileChannel, path, int64(len(data))), nil
			},
		},
		driverutil.Conv("streams.fetch", "file", "collection", 1, 0.003, func(path string, _ *core.Channel) (*core.Channel, error) {
			data, err := core.ReadQuantaFile(path)
			if err != nil {
				return nil, err
			}
			return driverutil.CollectionOf(data), nil
		}),
	}
	if d.DFS != nil {
		convs = append(convs,
			&core.Conversion{
				Name: "streams.dfs-put", From: "collection", To: "dfs",
				FixedCostMs: 4, PerQuantumMs: 0.006,
				Convert: func(in *core.Channel) (*core.Channel, error) {
					data, err := driverutil.ChannelSlice(in)
					if err != nil {
						return nil, err
					}
					return driverutil.SaveDFS(d.DFS, "", in, data)
				},
			},
			driverutil.Conv("streams.dfs-get", "dfs", "collection", 4, 0.005, func(path string, _ *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ReadDFSQuanta(d.DFS, path)
				if err != nil {
					return nil, err
				}
				return driverutil.CollectionOf(data), nil
			}),
		)
	}
	return convs
}

// RegisterMappings implements core.Driver: the general kinds minus PageRank,
// and the global Reduce as a 1-to-n mapping (Figure 4 of the paper) — it has
// no single streams primitive and maps to a group-all + fold pipeline.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	in, out := []string{"collection"}, "collection"
	driverutil.RegisterOps(r, Platform, in, out, driverutil.Without(driverutil.GeneralOps, core.KindReduce, core.KindPageRank))
	r.Register(core.KindReduce, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{
		{Name: "streams.group-all", Kind: core.KindReduce, In: in, Out: out, Cost: driverutil.GroupCost},
		{Name: "streams.fold", Kind: core.KindReduce, In: in, Out: out, Cost: driverutil.MapCost},
	}})
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	outs, stats, err := driverutil.RunStage(&engine{driver: d, stage: stage}, stage, in)
	if err == nil {
		driverutil.ApplySlowdown(stats, d.SimSlowdown)
	}
	return outs, stats, err
}

// pipe is the engine's native data: a re-openable iterator pipeline with an
// optional known cardinality.
type pipe struct {
	open func() core.Iterator
	card int64 // -1 unknown

	// data, on pipes over data at rest (held set), is the quanta as they
	// lie: open iterates them, and blocking operators and ApplyChain read
	// them directly, copying nothing.
	data []any
	held bool
}

// restPipe is the pipe over data at rest.
func restPipe(data []any) *pipe {
	return &pipe{open: core.NewSliceDataset(data).Open, card: int64(len(data)), data: data, held: true}
}

// rows is the pipe's row view: data at rest is read where it lies, a lazy
// pipeline is drained. Callers never write to what they get.
func (p *pipe) rows() []any {
	if p.held {
		return p.data
	}
	return core.Collect(p.open())
}

// rest returns the pipe at rest: as it is when it already is, drained
// otherwise.
func (p *pipe) rest() *pipe {
	if p.held {
		return p
	}
	return restPipe(p.rows())
}

type engine struct {
	driver *Driver
	stage  *core.Stage
}

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (*pipe, error) {
	data, err := driverutil.NeutralSlice(e.driver.DFS, ch)
	if err != nil {
		return nil, fmt.Errorf("streams: %w", err)
	}
	return restPipe(data), nil
}

// ToChannel implements driverutil.Engine. Always a copy through the iterator,
// never rows: the channel must not alias a slice the stage was handed.
func (e *engine) ToChannel(op *core.Operator, p *pipe) (*core.Channel, error) {
	return driverutil.CollectionOf(core.Collect(p.open())), nil
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []*pipe, round int, counter *int64, sniff func(any)) (*pipe, error) {
	out, err := e.apply(op, in, round)
	if err != nil {
		return nil, err
	}
	// Data at rest is observed where it lies: its cardinality is known and a
	// sniffer can walk it now, so it reaches a downstream chain kernel
	// uncopied.
	if out.held {
		if sniff == nil {
			*counter = out.card
		} else {
			driverutil.Observe([][]any{out.rows()}, counter, sniff)
		}
		return out, nil
	}
	// A lazy pipeline is observed as it flows by: count every quantum (and
	// sniff, in exploratory mode).
	observed := &pipe{card: out.card, open: func() core.Iterator {
		it := out.open()
		return core.FuncIterator(func() (any, bool) {
			q, ok := it.Next()
			if ok {
				*counter++
				if sniff != nil {
					sniff(q)
				}
			}
			return q, ok
		})
	}}
	// A lazily observed pipeline re-runs (and re-counts) per consumer; when
	// the operator feeds several stage-local consumers, materialize once.
	if driverutil.StageConsumers(e.stage, op) > 1 {
		return restPipe(observed.rows()), nil
	}
	return observed, nil
}

// ApplyChain implements driverutil.ChainEngine: the whole chain runs as one
// eager single-threaded pass of the compiled kernel over the pipe's single
// partition (driverutil.RunChainParts), so an absorbed reduce-by aggregates
// in place — no partial exchange, groups in first-occurrence order.
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, p *pipe, counters []*int64) (*pipe, error) {
	out := driverutil.RunChainParts(driverutil.Serial{}, kernel, [][]any{p.rows()}, counters)
	return restPipe(out[0]), nil
}

// apply evaluates the kinds streams' archetype owns — sources, sinks, cache
// and the lazy cartesian and union iterators; every other kind is the
// default arm, driverutil.ApplyBlocking over each input's rows as one
// partition.
func (e *engine) apply(op *core.Operator, in []*pipe, round int) (*pipe, error) {
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 { // loop-input placeholder: carried value substituted
			return in[0], nil
		}
		return restPipe(op.Params.Collection), nil

	case core.KindTextFileSource:
		parts, err := driverutil.ReadTextParts(driverutil.Serial{}, e.driver.DFS, op.Params.Path, 1)
		if err != nil {
			return nil, err
		}
		return restPipe(driverutil.Parts(parts).Collect()), nil

	case core.KindCache, core.KindCollectionSink:
		return in[0].rest(), nil

	case core.KindCartesian:
		left, right := in[0], in[1]
		combine := driverutil.Combine(op)
		return &pipe{card: -1, open: func() core.Iterator {
			rs := right.rows()
			lit := left.open()
			var cur any
			idx := len(rs) // force first advance
			return core.FuncIterator(func() (any, bool) {
				for idx >= len(rs) {
					q, ok := lit.Next()
					if !ok {
						return nil, false
					}
					cur = q
					idx = 0
				}
				out := combine(cur, rs[idx])
				idx++
				return out, true
			})
		}}, nil

	case core.KindUnion:
		left, right := in[0], in[1]
		return &pipe{card: driverutil.AddCards(left.card, right.card), open: func() core.Iterator {
			lit := left.open()
			var rit core.Iterator
			return core.FuncIterator(func() (any, bool) {
				if rit == nil {
					if q, ok := lit.Next(); ok {
						return q, true
					}
					rit = right.open()
				}
				return rit.Next()
			})
		}}, nil

	case core.KindTextFileSink:
		r := in[0].rest()
		if err := driverutil.WriteTextLines(e.driver.DFS, op, r.rows()); err != nil {
			return nil, err
		}
		return r, nil

	default:
		ins := make([][][]any, len(in))
		for i, p := range in {
			ins[i] = [][]any{p.rows()}
		}
		out, err := driverutil.ApplyBlocking(driverutil.Serial{}, op, round, ins)
		if err != nil {
			return nil, err
		}
		return restPipe(out[0]), nil
	}
}

func tempFile(dir, pattern string) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	path := f.Name()
	f.Close()
	return path, nil
}
