package core

import (
	"fmt"
	"math"
	"sort"
)

// ChannelDescriptor describes a type of communication channel: an internal
// data structure of a platform (e.g. an RDD), or a platform-neutral one
// (a driver collection, a file). Channels are the vertices of the channel
// conversion graph.
type ChannelDescriptor struct {
	Name     string // unique, e.g. "collection", "rdd", "relation"
	Platform string // owning platform; "" for platform-neutral channels
	Reusable bool   // may be consumed by multiple stages without recomputation
	AtRest   bool   // data is at rest (checkpointable by the progressive optimizer)
}

// Channel is a runtime instance of a channel: a payload of quanta flowing
// between execution operators, possibly across platforms.
type Channel struct {
	Desc    ChannelDescriptor
	Payload any   // *SliceDataset, engine handle, file path string, table ref...
	Card    int64 // observed cardinality; negative if unknown

	consumed bool // single-use channels flip this on first consumption
}

// NewChannel creates a channel instance.
func NewChannel(desc ChannelDescriptor, payload any, card int64) *Channel {
	return &Channel{Desc: desc, Payload: payload, Card: card}
}

// Consume marks the channel as read once and returns an error when a
// non-reusable channel is read twice, surfacing executor bugs early.
func (c *Channel) Consume() error {
	if c.consumed && !c.Desc.Reusable {
		return fmt.Errorf("core: channel %s consumed twice but is not reusable", c.Desc.Name)
	}
	c.consumed = true
	return nil
}

// Conversion is a directed edge of the channel conversion graph: a regular
// execution operator that converts one channel type into another (e.g.
// SparkCollect: rdd -> collection). Its cost is affine in the cardinality.
type Conversion struct {
	Name     string
	From, To string // channel descriptor names

	// FixedCostMs + PerQuantumMs*card estimates the conversion cost in
	// milliseconds; the data movement planner minimizes the sum over the
	// chosen conversion tree.
	FixedCostMs  float64
	PerQuantumMs float64

	// Convert performs the conversion at execution time.
	Convert func(in *Channel) (*Channel, error)
}

// CostMs returns the estimated cost of converting card quanta.
func (cv *Conversion) CostMs(card float64) float64 {
	return cv.FixedCostMs + cv.PerQuantumMs*card
}

// ConversionGraph is the channel conversion graph: channel descriptors as
// vertices, conversions as directed edges. The optimizer searches it for
// minimal conversion trees connecting a producer channel to the channels
// required by (possibly several) consumers.
type ConversionGraph struct {
	channels    map[string]ChannelDescriptor
	conversions []*Conversion

	// The path search's view, kept by AddChannel and AddConversion: vertex
	// numbers in registration order and, per vertex, its outgoing edges in
	// registration order.
	index map[string]int
	out   [][]convEdge
}

type convEdge struct {
	cv *Conversion
	to int // vertex number of cv.To
}

// NewConversionGraph creates an empty conversion graph.
func NewConversionGraph() *ConversionGraph {
	return &ConversionGraph{
		channels: map[string]ChannelDescriptor{},
		index:    map[string]int{},
	}
}

// AddChannel registers a channel descriptor. Re-registration with the same
// name is idempotent.
func (g *ConversionGraph) AddChannel(d ChannelDescriptor) {
	if _, ok := g.channels[d.Name]; !ok {
		g.index[d.Name] = len(g.out)
		g.out = append(g.out, nil)
	}
	g.channels[d.Name] = d
}

// Channel returns the descriptor registered under name.
func (g *ConversionGraph) Channel(name string) (ChannelDescriptor, bool) {
	d, ok := g.channels[name]
	return d, ok
}

// Channels returns all registered descriptors sorted by name.
func (g *ConversionGraph) Channels() []ChannelDescriptor {
	out := make([]ChannelDescriptor, 0, len(g.channels))
	for _, d := range g.channels {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddConversion registers a conversion edge. Both endpoint channels must
// already be registered.
func (g *ConversionGraph) AddConversion(cv *Conversion) error {
	if _, ok := g.channels[cv.From]; !ok {
		return fmt.Errorf("core: conversion %s: unknown source channel %q", cv.Name, cv.From)
	}
	if _, ok := g.channels[cv.To]; !ok {
		return fmt.Errorf("core: conversion %s: unknown target channel %q", cv.Name, cv.To)
	}
	g.conversions = append(g.conversions, cv)
	from := g.index[cv.From]
	g.out[from] = append(g.out[from], convEdge{cv: cv, to: g.index[cv.To]})
	return nil
}

// ConversionPath is a sequence of conversions from a source channel to a
// target channel, with its total estimated cost.
type ConversionPath struct {
	Steps  []*Conversion
	CostMs float64
}

// FindPath returns the cheapest conversion path from one channel to another
// for the given cardinality (Dijkstra over the conversion graph). A nil
// Steps slice with zero cost is returned when from == to. It returns an
// error when the target is unreachable. Among equally cheap choices the
// channel, and then the conversion, registered first wins. The search
// allocates nothing but the path it returns.
func (g *ConversionGraph) FindPath(from, to string, card float64) (*ConversionPath, error) {
	if from == to {
		return &ConversionPath{}, nil
	}
	src, okFrom := g.index[from]
	dst, okTo := g.index[to]
	if !okFrom || !okTo {
		return nil, fmt.Errorf("core: no conversion path from %q to %q", from, to)
	}
	// Per-vertex state lives on the stack for graphs of the usual size.
	const onStack = 16
	var distBuf [onStack]float64
	var prevBuf [onStack]*Conversion
	var doneBuf [onStack]bool
	n := len(g.out)
	dist, prev, done := distBuf[:], prevBuf[:], doneBuf[:]
	if n > onStack {
		dist, prev, done = make([]float64, n), make([]*Conversion, n), make([]bool, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		// Extract the unvisited vertex with minimal distance.
		cur, best := -1, math.Inf(1)
		for v, d := range dist {
			if !done[v] && d < best {
				cur, best = v, d
			}
		}
		if cur < 0 {
			return nil, fmt.Errorf("core: no conversion path from %q to %q", from, to)
		}
		if cur == dst {
			break
		}
		done[cur] = true
		for _, e := range g.out[cur] {
			if nd := best + e.cv.CostMs(card); nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = e.cv
			}
		}
	}
	hops := 0
	for at := dst; at != src; at = g.index[prev[at].From] {
		hops++
	}
	steps := make([]*Conversion, hops)
	for at := dst; at != src; at = g.index[prev[at].From] {
		hops--
		steps[hops] = prev[at]
	}
	return &ConversionPath{Steps: steps, CostMs: dist[dst]}, nil
}

// ConversionTree is a minimal conversion tree: the cheapest set of
// conversions that turns a root channel into every one of several target
// channels, sharing common prefixes (Section 4.1, data movement planning).
type ConversionTree struct {
	Root    string
	Edges   []*Conversion // in a valid execution order (parents before children)
	CostMs  float64
	Targets []string
}

// FindTree computes a minimal conversion tree from root to all targets for
// the given cardinality using the Dreyfus–Wagner Steiner tree dynamic
// program (the problem is NP-hard; conversion graphs are small, so the
// exact exponential-in-|targets| algorithm is practical — this is the
// "kernelized" search of the paper scaled to our graph sizes).
func (g *ConversionGraph) FindTree(root string, targets []string, card float64) (*ConversionTree, error) {
	// Deduplicate targets; drop targets equal to the root.
	seen := map[string]bool{}
	var terms []string
	for _, t := range targets {
		if t == root || seen[t] {
			continue
		}
		seen[t] = true
		terms = append(terms, t)
	}
	if len(terms) == 0 {
		return &ConversionTree{Root: root, Targets: targets}, nil
	}

	// Vertex indexing.
	names := make([]string, 0, len(g.channels))
	for n := range g.channels {
		names = append(names, n)
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	n := len(names)
	k := len(terms)
	if k > 12 {
		return nil, fmt.Errorf("core: too many conversion targets (%d)", k)
	}

	// dp[mask][v] = min cost of a tree rooted at v covering terminal set mask,
	// where edges are directed away from v.
	const inf = math.MaxFloat64 / 4
	full := 1 << k
	dp := make([][]float64, full)
	type choice struct {
		kind    int8 // 0 none, 1 split (sub-mask), 2 edge (conversion)
		subMask int
		cv      *Conversion
	}
	ch := make([][]choice, full)
	for m := range dp {
		dp[m] = make([]float64, n)
		ch[m] = make([]choice, n)
		for v := range dp[m] {
			dp[m][v] = inf
		}
	}
	for i, t := range terms {
		dp[1<<i][idx[t]] = 0
	}
	for mask := 1; mask < full; mask++ {
		// Combine sub-trees at the same vertex.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub < mask^sub {
				continue // each split counted once
			}
			rest := mask ^ sub
			for v := 0; v < n; v++ {
				if dp[sub][v] < inf && dp[rest][v] < inf {
					if c := dp[sub][v] + dp[rest][v]; c < dp[mask][v] {
						dp[mask][v] = c
						ch[mask][v] = choice{kind: 1, subMask: sub}
					}
				}
			}
		}
		// Relax along reversed edges (tree edges point away from the root, so
		// we walk conversions backwards: dp[mask][from] <- dp[mask][to]+cost).
		// Bellman–Ford style relaxation until fixpoint (graphs are tiny).
		for changed := true; changed; {
			changed = false
			for _, cv := range g.conversions {
				u, v := idx[cv.From], idx[cv.To]
				if dp[mask][v] < inf {
					if c := dp[mask][v] + cv.CostMs(card); c < dp[mask][u] {
						dp[mask][u] = c
						ch[mask][u] = choice{kind: 2, cv: cv}
						changed = true
					}
				}
			}
		}
	}
	rootIdx, ok := idx[root]
	if !ok {
		return nil, fmt.Errorf("core: unknown root channel %q", root)
	}
	if dp[full-1][rootIdx] >= inf {
		return nil, fmt.Errorf("core: no conversion tree from %q to %v", root, terms)
	}

	// Reconstruct edges.
	var edges []*Conversion
	var rec func(mask, v int)
	rec = func(mask, v int) {
		c := ch[mask][v]
		switch c.kind {
		case 1:
			rec(c.subMask, v)
			rec(mask^c.subMask, v)
		case 2:
			edges = append(edges, c.cv)
			rec(mask, idx[c.cv.To])
		}
	}
	rec(full-1, rootIdx)
	return &ConversionTree{
		Root:    root,
		Edges:   edges,
		CostMs:  dp[full-1][rootIdx],
		Targets: targets,
	}, nil
}
