package spark

import (
	"fmt"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// pageRank runs the classic iterative PageRank over an edge RDD: ranks and
// adjacency are partitioned by vertex; every iteration computes rank
// contributions in parallel, shuffles them by destination, and aggregates.
// Input quanta are core.Edge; output quanta are core.KV{vertex, rank}.
func (e *engine) pageRank(op *core.Operator, edges *RDD) (*RDD, error) {
	iters, damping := driverutil.PageRankParams(op)
	p := max(len(edges.parts()), 1)

	// Build per-partition adjacency: vertex -> out-neighbours, partitioned
	// by source vertex hash so each vertex's edges live on one partition. A
	// quantum that is no Edge routes anywhere; the build below reports it.
	bySrc := driverutil.Exchange(e, edges.rows(), p, driverutil.HashRoute(func(q any) any {
		edge, _ := q.(core.Edge)
		return edge.Src
	}, p))
	type adjPart struct {
		adj      map[int64][]int64
		vertices map[int64]bool
	}
	parts := make([]adjPart, p)
	err := e.Each(p, func(i int) error {
		ap := adjPart{adj: map[int64][]int64{}, vertices: map[int64]bool{}}
		for _, q := range bySrc[i] {
			edge, ok := q.(core.Edge)
			if !ok {
				return fmt.Errorf("spark.pagerank: quantum %T is not an Edge", q)
			}
			ap.adj[edge.Src] = append(ap.adj[edge.Src], edge.Dst)
			ap.vertices[edge.Src] = true
		}
		parts[i] = ap
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Destination-only vertices (sinks) also hold rank; find their owners.
	owner := func(v int64) int { return int(driverutil.HashKey(v) % uint64(p)) }
	sinkSets := make([]map[int64]bool, p)
	for i := range sinkSets {
		sinkSets[i] = map[int64]bool{}
	}
	for i := 0; i < p; i++ {
		for _, dsts := range parts[i].adj {
			for _, d := range dsts {
				sinkSets[owner(d)][d] = true
			}
		}
	}
	var nVertices int64
	ranks := make([]map[int64]float64, p)
	for i := 0; i < p; i++ {
		ranks[i] = map[int64]float64{}
		for v := range parts[i].vertices {
			if owner(v) == i {
				ranks[i][v] = 0
			}
		}
		for v := range sinkSets[i] {
			ranks[i][v] = 0
		}
		// Vertices whose adjacency lives here but whose rank is owned
		// elsewhere: move them. (The exchange placed edges by hash of Src via
		// GroupKey, which matches owner(), so this is a consistency check.)
		nVertices += int64(len(ranks[i]))
	}
	if nVertices == 0 {
		return NewRDD(make([][]any, p)), nil
	}
	init := 1.0 / float64(nVertices)
	for i := range ranks {
		for v := range ranks[i] {
			ranks[i][v] = init
		}
	}

	for it := 0; it < iters; it++ {
		e.Barrier()
		// Compute contributions per partition, bucketed by destination owner.
		contribs := make([][]map[int64]float64, p)
		driverutil.Do(e, p, func(i int) {
			local := make([]map[int64]float64, p)
			for j := range local {
				local[j] = map[int64]float64{}
			}
			for v, dsts := range parts[i].adj {
				r := ranks[owner(v)][v] // ranks of previous round: read-only here
				share := r / float64(len(dsts))
				for _, d := range dsts {
					local[owner(d)][d] += share
				}
			}
			contribs[i] = local
		})
		// Aggregate per destination partition.
		next := make([]map[int64]float64, p)
		driverutil.Do(e, p, func(j int) {
			nr := make(map[int64]float64, len(ranks[j]))
			for v := range ranks[j] {
				nr[v] = (1 - damping) / float64(nVertices)
			}
			for i := 0; i < p; i++ {
				for v, c := range contribs[i][j] {
					nr[v] += damping * c
				}
			}
			next[j] = nr
		})
		ranks = next
	}

	out := make([][]any, p)
	driverutil.Do(e, p, func(j int) {
		part := make([]any, 0, len(ranks[j]))
		for v, r := range ranks[j] {
			part = append(part, core.KV{Key: v, Value: r})
		}
		out[j] = part
	})
	return NewRDD(out), nil
}
