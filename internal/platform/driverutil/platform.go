package driverutil

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"rheem/internal/core"
	"rheem/internal/simclock"
	"rheem/internal/storage/dfs"
)

// The frame of a platform. What a platform is — its operator mappings, its
// channels, one conversion each way, its start-up charge — has the same shape
// on every engine; what differs is names, cost constants and the native data
// type. This file holds the shape once. An engine package declares the names
// and constants, implements Engine[T] over its native type and calls the
// helpers here directly; nothing below knows which engine is calling.

// Op is one 1-to-1 operator mapping: a logical kind, the suffix of the
// execution operator's name ("reduce-by" is "spark.reduce-by" on spark), the
// channel it emits where that is not the engine's own, and its cost.
type Op struct {
	Kind   core.Kind
	Suffix string
	Out    string
	Cost   core.OpCostParams
}

// The resource parameters of the execution operators, by shape of work; the
// platform's unit costs (core.UnitCoster) price them.
var (
	SourceCost    = core.OpCostParams{CPUPerQuantum: 0.0002, IOPerQuantum: 0.0006, FixedOverhead: 1}
	SinkCost      = core.OpCostParams{CPUPerQuantum: 0.0002, IOPerQuantum: 0.0004, FixedOverhead: 0.5}
	MapCost       = core.OpCostParams{CPUPerQuantum: 0.0006, FixedOverhead: 0.2} // every one-pass op without a set of its own
	FlatMapCost   = core.OpCostParams{CPUPerQuantum: 0.0012, FixedOverhead: 0.2}
	FilterCost    = core.OpCostParams{CPUPerQuantum: 0.0004, FixedOverhead: 0.2}
	SampleCost    = core.OpCostParams{CPUPerQuantum: 0.0004, FixedOverhead: 0.5}
	CountCost     = core.OpCostParams{CPUPerQuantum: 0.0001, FixedOverhead: 0.2}
	CacheCost     = core.OpCostParams{CPUPerQuantum: 0.0003, FixedOverhead: 0.3}
	SortCost      = core.OpCostParams{CPUPerQuantum: 0.002, FixedOverhead: 1}
	GroupCost     = core.OpCostParams{CPUPerQuantum: 0.0014, NetPerQuantum: 0.0003, FixedOverhead: 1} // keyed aggregations
	JoinCost      = core.OpCostParams{CPUPerQuantum: 0.0018, NetPerQuantum: 0.0004, FixedOverhead: 1}
	IEJoinCost    = core.OpCostParams{CPUPerQuantum: 0.004, FixedOverhead: 1} // sort-based: n log n as a higher per-quantum factor
	CartesianCost = core.OpCostParams{CPUPerQuantum: 0.01, FixedOverhead: 1}
	PageRankCost  = core.OpCostParams{CPUPerQuantum: 0.004, NetPerQuantum: 0.001, FixedOverhead: 2}
)

// GeneralOps is what a general-purpose dataflow engine maps (spark, flink,
// streams). An engine that differs takes the list Without the kinds it maps
// otherwise and adds its own.
var GeneralOps = []Op{
	{Kind: core.KindCollectionSource, Suffix: "collection-source", Cost: SourceCost},
	{Kind: core.KindTextFileSource, Suffix: "textfile-source", Cost: SourceCost},
	{Kind: core.KindMap, Suffix: "map", Cost: MapCost},
	{Kind: core.KindFlatMap, Suffix: "flatmap", Cost: FlatMapCost},
	{Kind: core.KindFilter, Suffix: "filter", Cost: FilterCost},
	{Kind: core.KindMapPart, Suffix: "map-partitions", Cost: MapCost},
	{Kind: core.KindSample, Suffix: "sample", Cost: SampleCost},
	{Kind: core.KindDistinct, Suffix: "distinct", Cost: GroupCost},
	{Kind: core.KindSort, Suffix: "sort", Cost: SortCost},
	{Kind: core.KindCount, Suffix: "count", Cost: CountCost},
	{Kind: core.KindReduce, Suffix: "reduce", Cost: MapCost},
	{Kind: core.KindReduceBy, Suffix: "reduce-by", Cost: GroupCost},
	{Kind: core.KindGroupBy, Suffix: "group-by", Cost: GroupCost},
	{Kind: core.KindZipWithID, Suffix: "zip-with-id", Cost: MapCost},
	{Kind: core.KindCache, Suffix: "cache", Cost: CacheCost},
	{Kind: core.KindProject, Suffix: "project", Cost: MapCost},
	{Kind: core.KindJoin, Suffix: "join", Cost: JoinCost},
	{Kind: core.KindIEJoin, Suffix: "iejoin", Cost: IEJoinCost},
	{Kind: core.KindCartesian, Suffix: "cartesian", Cost: CartesianCost},
	{Kind: core.KindUnion, Suffix: "union", Cost: MapCost},
	{Kind: core.KindIntersect, Suffix: "intersect", Cost: MapCost},
	{Kind: core.KindCoGroup, Suffix: "co-group", Cost: GroupCost},
	{Kind: core.KindPageRank, Suffix: "pagerank", Cost: PageRankCost},
	{Kind: core.KindCollectionSink, Suffix: "collection-sink", Out: "collection", Cost: SinkCost},
	{Kind: core.KindTextFileSink, Suffix: "textfile-sink", Cost: SinkCost},
}

// Without returns ops minus the mappings of the given kinds, in order.
func Without(ops []Op, kinds ...core.Kind) []Op {
	return slices.DeleteFunc(slices.Clone(ops), func(op Op) bool { return slices.Contains(kinds, op.Kind) })
}

// RegisterOps registers one single-step alternative per op: the execution
// operator platform.suffix, accepting the in channels in preference order,
// producing out, or the channel the op declares, at the op's cost.
func RegisterOps(r *core.MappingRegistry, platform string, in []string, out string, ops []Op) {
	for _, op := range ops {
		r.Register(op.Kind, core.Alternative{Platform: platform, Steps: []core.ExecOpTemplate{{
			Name: platform + "." + op.Suffix, Kind: op.Kind, In: in, Out: cmp.Or(op.Out, out), Cost: op.Cost,
		}}})
	}
}

// DFSChannel is the descriptor of DFS-resident encoded-quanta files (a dfs://
// path payload). It is platform-neutral: every driver attached to a DFS store
// declares it.
var DFSChannel = core.ChannelDescriptor{Name: "dfs", Reusable: true, AtRest: true}

// DefaultWorkers resolves a parallelism Config field: n when positive, else
// the number of CPUs and at least 4 (partitions interleave when the host is
// smaller).
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return max(runtime.NumCPU(), 4)
}

// Latency is a platform's simulated latency: what the paper's cluster costs
// that the host does not. Each engine package declares its paper values once
// as a Latency (spark.Paper, …), a driver's config holds one, and the zero
// value is none. A platform charges the fields its paper value sets, and
// NewContext rejects any other (Within). Every charge is made through a
// method of Latency or Boot, which call simclock.Charge.
type Latency struct {
	ContextMs float64 // paid by a platform's first stage: the context boot
	StageMs   float64 // paid by every stage: job dispatch, a query's round trip
	BarrierMs float64 // paid by every barrier: a shuffle, an exchange, a superstep
	Slowdown  float64 // the factor Stretch stretches a stage's busy time by; 1 or less is none
}

// Within reports an error naming a field l sets that paper, the values a
// platform declares, leaves zero: a latency the platform never charges.
func (l Latency) Within(paper Latency) error {
	set, uses := reflect.ValueOf(l), reflect.ValueOf(paper)
	for i := range set.NumField() {
		if set.Field(i).Float() != 0 && uses.Field(i).Float() == 0 {
			return fmt.Errorf("latency sets %s, which the platform never charges", set.Type().Field(i).Name)
		}
	}
	return nil
}

func charge(ms float64) { simclock.Charge(time.Duration(ms * float64(time.Millisecond))) }

// Barrier charges one barrier: a Latency is the Barrier half of an engine's
// Scheduler, and a BSP engine's superstep.
func (l Latency) Barrier() { charge(l.BarrierMs) }

// Stretch simulates a platform with less compute capacity than the host, so
// that the parallel engines keep the paper's cluster-vs-single-node capacity
// ratio (the host plays the whole cluster; one node is a fraction of it): the
// stage's busy time is stretched by Slowdown, the difference charged, and its
// statistics scaled to match. The stage is charged the time the sleep took
// (Charge's return), not the time asked for: a sleep of microseconds takes
// about a millisecond, and a stage runtime without it leaves most of a loop of
// small stages in no stage at all.
func (l Latency) Stretch(stats *core.StageStats) {
	if stats == nil || l.Slowdown <= 1 {
		return
	}
	stats.Runtime += simclock.Charge(time.Duration(float64(stats.Runtime) * (l.Slowdown - 1)))
	for op, os := range stats.Ops {
		os.Runtime = time.Duration(float64(os.Runtime) * l.Slowdown)
		stats.Ops[op] = os
	}
}

// Boot is a driver's running Latency: it remembers whether the context has
// booted, so that the first stage pays ContextMs and the quote follows. Every
// bundled driver embeds one; it is the only core.StartupCoster, and it is safe
// for concurrent stages.
type Boot struct {
	Latency
	booted atomic.Bool
}

// Booted reports whether a stage has paid the context boot.
func (b *Boot) Booted() bool { return b.booted.Load() }

// StartupCostMs implements core.StartupCoster: the context boot until a stage
// has paid it, then none, and the per-stage latency.
func (b *Boot) StartupCostMs() (bootMs, stageMs float64) {
	if b.Booted() {
		return 0, b.StageMs
	}
	return b.ContextMs, b.StageMs
}

// Charge pays a stage's start-up: the context boot if no stage has yet, then
// the per-stage latency.
func (b *Boot) Charge() {
	if !b.booted.Swap(true) {
		charge(b.ContextMs)
	}
	charge(b.StageMs)
}

// Execute runs a stage of a driver whose running latency is b: the stage's
// start-up, the stage over the engine, then the stretch of its busy time.
func Execute[T any](b *Boot, e Engine[T], stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	b.Charge()
	outs, stats, err := RunStage(e, stage, in)
	if err == nil {
		b.Stretch(stats)
	}
	return outs, stats, err
}

// Conv declares a conversion whose source channel carries a payload of type P.
// The payload assertion is made here, once and checked: a foreign channel is
// an error naming the conversion, never a panic. Name, endpoints and the two
// cost constants stay literals at the call site, beside the conversion they
// price.
func Conv[P any](name, from, to string, fixedMs, perQuantumMs float64, convert func(p P, in *core.Channel) (*core.Channel, error)) *core.Conversion {
	return &core.Conversion{
		Name: name, From: from, To: to, FixedCostMs: fixedMs, PerQuantumMs: perQuantumMs,
		Convert: func(in *core.Channel) (*core.Channel, error) {
			p, ok := in.Payload.(P)
			if !ok {
				return nil, fmt.Errorf("%s: %s channel payload is %T", name, from, in.Payload)
			}
			return convert(p, in)
		},
	}
}

// CollectionOf wraps quanta as a driver collection channel.
func CollectionOf(data []any) *core.Channel {
	return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data)))
}

// NeutralSlice reads a platform-neutral input channel — a driver collection,
// a quanta file or a DFS quanta file — as rows.
func NeutralSlice(store *dfs.Store, ch *core.Channel) ([]any, error) {
	switch ch.Desc.Name {
	case "collection", "file":
		return ChannelSlice(ch)
	case "dfs":
		path, ok := ch.Payload.(string)
		if !ok {
			return nil, fmt.Errorf("channel dfs payload %T", ch.Payload)
		}
		return ReadDFSQuanta(store, path)
	}
	return nil, fmt.Errorf("unsupported input channel %q", ch.Desc.Name)
}

// SaveDFS spills data to a DFS quanta file named after the source channel and
// returns the DFS channel over it.
func SaveDFS(store *dfs.Store, prefix string, in *core.Channel, data []any) (*core.Channel, error) {
	name := fmt.Sprintf("spill/%s%p.rqb", prefix, in)
	if err := WriteDFSQuanta(store, name, data); err != nil {
		return nil, err
	}
	return core.NewChannel(DFSChannel, dfs.Scheme+name, int64(len(data))), nil
}

// Observe is the epilogue of an operator evaluated eagerly: its output is
// counted and, in exploratory mode, every quantum shown to the sniffer.
func Observe(parts [][]any, counter *int64, sniff func(any)) {
	for _, part := range parts {
		*counter += int64(len(part))
		if sniff != nil {
			for _, q := range part {
				sniff(q)
			}
		}
	}
}

// Slices is the channel half of an engine whose native data is a plain slice
// of quanta (the graph engines embed it): any collection-typed channel in, a
// collection channel out.
type Slices struct{}

// FromChannel implements Engine.
func (Slices) FromChannel(ch *core.Channel) ([]any, error) { return ChannelSlice(ch) }

// ToChannel implements Engine.
func (Slices) ToChannel(_ *core.Operator, data []any) (*core.Channel, error) {
	return CollectionOf(data), nil
}

// PageRankParams returns a PageRank operator's iteration count and damping
// factor, defaulted to 10 and 0.85.
func PageRankParams(op *core.Operator) (iters int, damping float64) {
	iters, damping = op.Params.Iterations, op.Params.DampingFactor
	if iters <= 0 {
		iters = 10
	}
	if damping <= 0 {
		damping = 0.85
	}
	return iters, damping
}
