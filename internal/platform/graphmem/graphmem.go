// Package graphmem implements the JGraph-analog platform: a compact
// in-memory graph library. Edges are compiled into a CSR (compressed
// sparse row) adjacency structure over densely renumbered vertices, and
// graph algorithms run as tight single-threaded array loops. It has zero
// startup cost and excellent constants, so it dominates on small graphs and
// fades on large ones — the Figure 9(c)/(f) profile of the paper, where
// RHEEM surprisingly pairs it with a big-data engine for CrocoPR. The package
// is the CSR library and one Apply on the shared platform frame
// (driverutil/platform.go).
package graphmem

import (
	"fmt"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// Platform is the platform name this driver registers under.
const Platform = "graphmem"

// Graph is a CSR-encoded directed graph with the original vertex ids kept
// for output mapping.
type Graph struct {
	ids     []int64 // dense index -> original id
	offsets []int32 // CSR row offsets, len = |V|+1
	targets []int32 // CSR column indexes, len = |E|
}

// BuildGraph compiles edge quanta into CSR form.
func BuildGraph(edges []any) (*Graph, error) {
	index := map[int64]int32{}
	var ids []int64
	intern := func(v int64) int32 {
		if i, ok := index[v]; ok {
			return i
		}
		i := int32(len(ids))
		index[v] = i
		ids = append(ids, v)
		return i
	}
	type e struct{ s, d int32 }
	es := make([]e, 0, len(edges))
	for _, q := range edges {
		edge, ok := q.(core.Edge)
		if !ok {
			return nil, fmt.Errorf("graphmem: quantum %T is not an Edge", q)
		}
		es = append(es, e{intern(edge.Src), intern(edge.Dst)})
	}
	n := len(ids)
	offsets := make([]int32, n+1)
	for _, ed := range es {
		offsets[ed.s+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]int32, len(es))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, ed := range es {
		targets[cursor[ed.s]] = ed.d
		cursor[ed.s]++
	}
	return &Graph{ids: ids, offsets: offsets, targets: targets}, nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.ids) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.targets) }

// PageRank runs the power iteration over the CSR structure.
func (g *Graph) PageRank(iterations int, damping float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if iterations <= 0 {
		iterations = 10
	}
	if damping <= 0 {
		damping = 0.85
	}
	ranks := make([]float64, n)
	next := make([]float64, n)
	init := 1.0 / float64(n)
	for i := range ranks {
		ranks[i] = init
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			lo, hi := g.offsets[v], g.offsets[v+1]
			deg := hi - lo
			if deg == 0 {
				continue
			}
			share := damping * ranks[v] / float64(deg)
			for _, t := range g.targets[lo:hi] {
				next[t] += share
			}
		}
		ranks, next = next, ranks
	}
	return ranks
}

// Driver is the graphmem platform driver. The embedded Boot is its running
// latency (set it before the first stage) and its core.StartupCoster.
type Driver struct {
	driverutil.Boot
}

// Paper is graphmem's latency on the paper's testbed: one node (see
// streams.Paper).
var Paper = driverutil.Latency{Slowdown: 4}

// New creates the driver with no simulated latency.
func New() *Driver { return &Driver{} }

// UnitCosts implements core.UnitCoster.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.8, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1, UsdPerHour: 0.5}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// ChannelDescriptors implements core.Driver: graphmem speaks collections.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor { return nil }

// Conversions implements core.Driver.
func (d *Driver) Conversions() []*core.Conversion { return nil }

// RegisterMappings implements core.Driver: graph algorithms only.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	driverutil.RegisterOps(r, Platform, []string{"collection"}, "collection", []driverutil.Op{{Kind: core.KindPageRank, Suffix: "pagerank", Cost: driverutil.PageRankCost}})
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	return driverutil.Execute(&d.Boot, engine{}, stage, in)
}

// engine speaks collections in and out (driverutil.Slices).
type engine struct{ driverutil.Slices }

// Apply implements driverutil.Engine.
func (engine) Apply(op *core.Operator, in [][]any, round core.Round, counter *int64, sniff func(any)) ([]any, error) {
	if op.Kind != core.KindPageRank {
		return nil, fmt.Errorf("graphmem: unsupported operator kind %s (graph platform)", op.Kind)
	}
	g, err := BuildGraph(in[0])
	if err != nil {
		return nil, err
	}
	ranks := g.PageRank(op.Params.Iterations, op.Params.DampingFactor)
	out := make([]any, len(ranks))
	for i, r := range ranks {
		out[i] = core.KV{Key: g.ids[i], Value: r}
	}
	driverutil.Observe([][]any{out}, counter, sniff)
	return out, nil
}
