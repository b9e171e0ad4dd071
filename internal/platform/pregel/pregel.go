// Package pregel implements the Giraph-analog platform: a bulk-synchronous
// parallel (BSP) vertex-centric graph engine. A computation proceeds in
// supersteps; in each superstep every active vertex runs its vertex program
// over the messages addressed to it, may send messages along its edges for
// the next superstep, and may vote to halt. Message routing between the
// parallel workers uses combiners to pre-aggregate. The engine pays a
// per-superstep synchronization overhead (scaled down from cluster
// reality), which is why it wins on big graphs and loses small ones to the
// in-memory graph library. The package is the BSP runtime, two vertex programs
// and one Apply on the shared platform frame (driverutil/platform.go).
package pregel

import (
	"fmt"
	"sync"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/simclock"
)

// Platform is the platform name this driver registers under.
const Platform = "pregel"

// Config tunes the BSP runtime.
type Config struct {
	// Workers is the number of parallel vertex partitions. Defaults to CPUs.
	Workers int
	// Latency is the simulated cluster latency; the zero value is none and
	// Paper is the paper's testbed.
	Latency driverutil.Latency
}

// Paper is pregel's latency on the paper's testbed: the context boots once
// and every superstep is a barrier that synchronizes the workers. A stage
// dispatches no job of its own.
var Paper = driverutil.Latency{ContextMs: 60, BarrierMs: 1.5}

// UnitCosts implements core.UnitCoster.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.3, MsPerIOUnit: 0.4, MsPerNetUnit: 1, MsPerFixed: 3, UsdPerHour: 8}
}

// VertexContext is handed to a vertex program at every superstep.
type VertexContext struct {
	ID        int64
	Superstep int
	Value     float64
	OutEdges  []int64
	NumV      int64

	halted bool
	sends  []message
}

type message struct {
	to    int64
	value float64
}

// Send addresses a message to another vertex for the next superstep.
func (c *VertexContext) Send(to int64, value float64) {
	c.sends = append(c.sends, message{to: to, value: value})
}

// SendToAllNeighbors sends value along every outgoing edge.
func (c *VertexContext) SendToAllNeighbors(value float64) {
	for _, t := range c.OutEdges {
		c.Send(t, value)
	}
}

// VoteToHalt deactivates the vertex until a message reactivates it.
func (c *VertexContext) VoteToHalt() { c.halted = true }

// Program is a vertex program: called per active vertex per superstep with
// the messages received; the returned value becomes the vertex value.
type Program interface {
	Compute(ctx *VertexContext, messages []float64) float64
	// Combine pre-aggregates two message values addressed to the same
	// vertex (a Giraph combiner); return false from Combinable to disable.
	Combine(a, b float64) float64
	Combinable() bool
	// MaxSupersteps bounds the computation.
	MaxSupersteps() int
}

// Run executes a vertex program over edge quanta and returns the final
// vertex values. The graph is partitioned by vertex hash across workers; every
// superstep is charged as one of lat's barriers on clock.
func Run(prog Program, edges []core.Edge, workers int, lat driverutil.Latency, clock *simclock.Clock) (map[int64]float64, int, error) {
	if workers < 1 {
		workers = 1
	}
	// Build per-worker vertex sets.
	adj := map[int64][]int64{}
	vset := map[int64]bool{}
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		vset[e.Src] = true
		vset[e.Dst] = true
	}
	n := int64(len(vset))
	if n == 0 {
		return map[int64]float64{}, 0, nil
	}
	owner := func(v int64) int {
		h := uint64(v)*2654435761 + 0x9e3779b97f4a7c15
		return int(h % uint64(workers))
	}
	type vertexState struct {
		value  float64
		active bool
	}
	states := make([]map[int64]*vertexState, workers)
	for i := range states {
		states[i] = map[int64]*vertexState{}
	}
	for v := range vset {
		states[owner(v)][v] = &vertexState{active: true}
	}

	inbox := make([]map[int64][]float64, workers)
	for i := range inbox {
		inbox[i] = map[int64][]float64{}
	}

	superstep := 0
	for ; superstep < prog.MaxSupersteps(); superstep++ {
		lat.Barrier(clock)
		// Check for termination: all halted and no pending messages.
		pending := false
		for i := 0; i < workers; i++ {
			if len(inbox[i]) > 0 {
				pending = true
				break
			}
		}
		anyActive := false
		for i := 0; i < workers && !anyActive; i++ {
			for _, st := range states[i] {
				if st.active {
					anyActive = true
					break
				}
			}
		}
		if superstep > 0 && !pending && !anyActive {
			break
		}

		// Compute phase: workers process their active vertices in parallel,
		// bucketing outgoing messages by destination worker.
		outboxes := make([][]map[int64][]float64, workers) // [from][to]
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out := make([]map[int64][]float64, workers)
				for i := range out {
					out[i] = map[int64][]float64{}
				}
				for v, st := range states[w] {
					msgs := inbox[w][v]
					if !st.active && len(msgs) == 0 {
						continue
					}
					st.active = true
					ctx := &VertexContext{
						ID: v, Superstep: superstep, Value: st.value,
						OutEdges: adj[v], NumV: n,
					}
					st.value = prog.Compute(ctx, msgs)
					if ctx.halted {
						st.active = false
					}
					for _, m := range ctx.sends {
						tw := owner(m.to)
						if prog.Combinable() {
							if cur, ok := out[tw][m.to]; ok && len(cur) == 1 {
								out[tw][m.to][0] = prog.Combine(cur[0], m.value)
								continue
							}
						}
						out[tw][m.to] = append(out[tw][m.to], m.value)
					}
				}
				outboxes[w] = out
			}(w)
		}
		wg.Wait()

		// Exchange phase: merge outboxes into next-superstep inboxes.
		next := make([]map[int64][]float64, workers)
		for w := 0; w < workers; w++ {
			next[w] = map[int64][]float64{}
		}
		var wg2 sync.WaitGroup
		for tw := 0; tw < workers; tw++ {
			wg2.Add(1)
			go func(tw int) {
				defer wg2.Done()
				for fw := 0; fw < workers; fw++ {
					for v, vals := range outboxes[fw][tw] {
						if prog.Combinable() && len(next[tw][v]) == 1 && len(vals) == 1 {
							next[tw][v][0] = prog.Combine(next[tw][v][0], vals[0])
						} else {
							next[tw][v] = append(next[tw][v], vals...)
						}
					}
				}
			}(tw)
		}
		wg2.Wait()
		inbox = next
	}

	result := make(map[int64]float64, n)
	for w := 0; w < workers; w++ {
		for v, st := range states[w] {
			result[v] = st.value
		}
	}
	return result, superstep, nil
}

// PageRankProgram is the canonical Pregel PageRank vertex program.
type PageRankProgram struct {
	Iterations int
	Damping    float64
}

// Compute implements Program.
func (p PageRankProgram) Compute(ctx *VertexContext, messages []float64) float64 {
	var value float64
	if ctx.Superstep == 0 {
		value = 1.0 / float64(ctx.NumV)
	} else {
		var sum float64
		for _, m := range messages {
			sum += m
		}
		value = (1-p.Damping)/float64(ctx.NumV) + p.Damping*sum
	}
	if ctx.Superstep < p.Iterations {
		if deg := len(ctx.OutEdges); deg > 0 {
			ctx.SendToAllNeighbors(value / float64(deg))
		}
	} else {
		ctx.VoteToHalt()
	}
	return value
}

// Combine implements Program: rank contributions sum.
func (p PageRankProgram) Combine(a, b float64) float64 { return a + b }

// Combinable implements Program.
func (p PageRankProgram) Combinable() bool { return true }

// MaxSupersteps implements Program.
func (p PageRankProgram) MaxSupersteps() int { return p.Iterations + 1 }

// Driver is the pregel platform driver. The embedded Boot is its running
// latency and its core.StartupCoster.
type Driver struct {
	Conf Config
	driverutil.Boot
}

// New creates a pregel driver with no simulated latency.
func New() *Driver { return NewWithConfig(Config{}) }

// NewWithConfig creates a pregel driver with an explicit configuration.
func NewWithConfig(conf Config) *Driver {
	conf.Workers = driverutil.DefaultWorkers(conf.Workers)
	return &Driver{Conf: conf, Boot: driverutil.Boot{Latency: conf.Latency}}
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor { return nil }

// Conversions implements core.Driver.
func (d *Driver) Conversions() []*core.Conversion { return nil }

// RegisterMappings implements core.Driver.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	driverutil.RegisterOps(r, Platform, []string{"collection"}, "collection", []driverutil.Op{{Kind: core.KindPageRank, Suffix: "pagerank", Cost: driverutil.PageRankCost}})
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	return driverutil.Execute(&d.Boot, &engine{driver: d, clock: in.Clock}, stage, in)
}

// engine speaks collections in and out (driverutil.Slices).
type engine struct {
	driverutil.Slices
	driver *Driver
	clock  *simclock.Clock // the stage's, for the supersteps' barriers
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in [][]any, round int, counter *int64, sniff func(any)) ([]any, error) {
	if op.Kind != core.KindPageRank {
		return nil, fmt.Errorf("pregel: unsupported operator kind %s (graph platform)", op.Kind)
	}
	edges := make([]core.Edge, 0, len(in[0]))
	for _, q := range in[0] {
		edge, ok := q.(core.Edge)
		if !ok {
			return nil, fmt.Errorf("pregel: quantum %T is not an Edge", q)
		}
		edges = append(edges, edge)
	}
	iters, damping := driverutil.PageRankParams(op)
	ranks, _, err := Run(PageRankProgram{Iterations: iters, Damping: damping}, edges, e.driver.Conf.Workers, e.driver.Latency, e.clock)
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, len(ranks))
	for v, r := range ranks {
		out = append(out, core.KV{Key: v, Value: r})
	}
	driverutil.Observe([][]any{out}, counter, sniff)
	return out, nil
}

// ConnectedComponentsProgram labels every vertex with the smallest vertex
// id reachable from it (treating edges as undirected is the caller's
// concern; run over a symmetrized edge list for undirected semantics). It
// demonstrates that the BSP runtime is not PageRank-specific.
type ConnectedComponentsProgram struct {
	// MaxRounds bounds propagation; the run halts earlier once labels
	// stabilize (all vertices vote to halt).
	MaxRounds int
}

// Compute implements Program: propagate the minimum label.
func (p ConnectedComponentsProgram) Compute(ctx *VertexContext, messages []float64) float64 {
	label := ctx.Value
	if ctx.Superstep == 0 {
		label = float64(ctx.ID)
	}
	improved := ctx.Superstep == 0
	for _, m := range messages {
		if m < label {
			label = m
			improved = true
		}
	}
	if improved {
		ctx.SendToAllNeighbors(label)
	} else {
		ctx.VoteToHalt()
	}
	return label
}

// Combine implements Program: only the minimum label matters.
func (p ConnectedComponentsProgram) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Combinable implements Program.
func (p ConnectedComponentsProgram) Combinable() bool { return true }

// MaxSupersteps implements Program.
func (p ConnectedComponentsProgram) MaxSupersteps() int {
	if p.MaxRounds <= 0 {
		return 64
	}
	return p.MaxRounds
}
