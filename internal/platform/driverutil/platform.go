package driverutil

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// The frame of a platform. What a platform is — its operator mappings, its
// channels, one conversion each way, its start-up charge — has the same shape
// on every engine; what differs is names, cost constants and the native data
// type. This file holds the shape once. An engine package declares the names
// and constants, implements Engine[T] over its native type and calls the
// helpers here directly; nothing below knows which engine is calling.

// Op is one 1-to-1 operator mapping: a logical kind, the suffix of the
// execution operator's name ("reduce-by" is "spark.reduce-by" on spark) and,
// where the operator emits another channel than the engine's own, that channel.
type Op struct {
	Kind   core.Kind
	Suffix string
	Out    string
}

// GeneralOps is what a general-purpose dataflow engine maps (spark, flink,
// streams). An engine that differs takes the list Without the kinds it maps
// otherwise and adds its own.
var GeneralOps = []Op{
	{Kind: core.KindCollectionSource, Suffix: "collection-source"},
	{Kind: core.KindTextFileSource, Suffix: "textfile-source"},
	{Kind: core.KindMap, Suffix: "map"},
	{Kind: core.KindFlatMap, Suffix: "flatmap"},
	{Kind: core.KindFilter, Suffix: "filter"},
	{Kind: core.KindMapPart, Suffix: "map-partitions"},
	{Kind: core.KindSample, Suffix: "sample"},
	{Kind: core.KindDistinct, Suffix: "distinct"},
	{Kind: core.KindSort, Suffix: "sort"},
	{Kind: core.KindCount, Suffix: "count"},
	{Kind: core.KindReduce, Suffix: "reduce"},
	{Kind: core.KindReduceBy, Suffix: "reduce-by"},
	{Kind: core.KindGroupBy, Suffix: "group-by"},
	{Kind: core.KindZipWithID, Suffix: "zip-with-id"},
	{Kind: core.KindCache, Suffix: "cache"},
	{Kind: core.KindProject, Suffix: "project"},
	{Kind: core.KindJoin, Suffix: "join"},
	{Kind: core.KindIEJoin, Suffix: "iejoin"},
	{Kind: core.KindCartesian, Suffix: "cartesian"},
	{Kind: core.KindUnion, Suffix: "union"},
	{Kind: core.KindIntersect, Suffix: "intersect"},
	{Kind: core.KindCoGroup, Suffix: "co-group"},
	{Kind: core.KindPageRank, Suffix: "pagerank"},
	{Kind: core.KindCollectionSink, Suffix: "collection-sink", Out: "collection"},
	{Kind: core.KindTextFileSink, Suffix: "textfile-sink"},
}

// Without returns ops minus the mappings of the given kinds, in order.
func Without(ops []Op, kinds ...core.Kind) []Op {
	return slices.DeleteFunc(slices.Clone(ops), func(op Op) bool { return slices.Contains(kinds, op.Kind) })
}

// RegisterOps registers one single-step alternative per op: the execution
// operator platform.suffix, accepting the in channels in preference order and
// producing out, or the channel the op declares.
func RegisterOps(r *core.MappingRegistry, platform string, in []string, out string, ops []Op) {
	for _, op := range ops {
		r.Register(op.Kind, core.Alternative{Platform: platform, Steps: []core.ExecOpTemplate{{
			Name: platform + "." + op.Suffix, Platform: platform, Kind: op.Kind, In: in, Out: cmp.Or(op.Out, out),
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

// Boot is a platform's simulated start-up: ContextMs once, on the first job
// (cluster context boot), JobMs on every job. Engines embed it; it is safe for
// concurrent jobs.
type Boot struct {
	ContextMs, JobMs float64

	mu     sync.Mutex
	booted bool
}

// Booted reports whether a job has paid the context boot.
func (b *Boot) Booted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.booted
}

// StartupCostMs implements core.StartupCoster: the optimizer is quoted the
// context boot before first use and the per-job latency afterwards.
func (b *Boot) StartupCostMs() float64 {
	if b.Booted() {
		return b.JobMs
	}
	return b.ContextMs + b.JobMs
}

// Charge pays a job's start-up: the context boot if no job has yet, then the
// per-job latency.
func (b *Boot) Charge() {
	b.mu.Lock()
	boot := !b.booted
	b.booted = true
	b.mu.Unlock()
	if boot {
		SleepMs(b.ContextMs)
	}
	SleepMs(b.JobMs)
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

// SegmentsOf wraps a decoded segment run as a driver collection channel,
// column batches kept: it iterates as the same rows and batch-aware consumers
// skip the rebuild.
func SegmentsOf(segs []core.Segment) *core.Channel {
	ds := core.NewSegmentedDataset(segs)
	return core.NewChannel(core.CollectionChannel, ds, ds.Card())
}

// NeutralSegments reads a platform-neutral input channel — a driver collection,
// a quanta file or a DFS quanta file — as a segment run, column batches kept.
func NeutralSegments(store *dfs.Store, ch *core.Channel) ([]core.Segment, error) {
	switch ch.Desc.Name {
	case "collection", "file":
		return ChannelSegments(ch)
	case "dfs":
		path, ok := ch.Payload.(string)
		if !ok {
			return nil, fmt.Errorf("channel dfs payload %T", ch.Payload)
		}
		return ReadDFSQuantaSegments(store, path)
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

// Parts is partitions at rest: one segment run per partition.
type Parts [][]core.Segment

// Count returns the total number of quanta.
func (p Parts) Count() int64 {
	var n int64
	for _, part := range p {
		for _, s := range part {
			n += int64(s.Len())
		}
	}
	return n
}

// Collect concatenates all partitions in order into a slice of its own.
func (p Parts) Collect() []any {
	out := make([]any, 0, p.Count())
	for _, part := range p {
		for _, s := range part {
			out = s.AppendRows(out)
		}
	}
	return out
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
