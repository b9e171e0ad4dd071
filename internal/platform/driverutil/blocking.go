package driverutil

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rheem/internal/core"
)

// Blocking operators. How an operator that needs more than one quantum at a
// time decomposes into route → per-partition kernel → wrap is decided here,
// once, for every engine: ApplyBlocking is the table of the thirteen such
// kinds over row partitions — the nine blocking kinds, map-partitions,
// zip-with-id, sample and PageRank — and RunChainParts the one runner of a
// compiled chain over partitions at rest, a chain ending in a reduce-by
// included. An engine contributes only what its archetype owns — where
// per-partition work runs and what an exchange costs (Scheduler) — and its
// native wrapper around the row partitions that come back.
//
// Ownership of partitions: engine and kernel code never writes to a
// partition it is handed (every slice kernel allocates its output, Sort
// copies), so inputs are read where they lie; user code that may write — a
// MapPart UDF — is handed a copy of its partition, made in ApplyBlocking's
// map-partitions arm and nowhere else; and what a stage hands back through a
// collection channel never aliases a slice the caller handed in.

// Scheduler is what an engine's archetype contributes to a blocking
// operator.
type Scheduler interface {
	// Each runs fn(i) for every i in [0, n) on the engine's workers and
	// returns the first error. fn runs user code: a panic in it resurfaces
	// on the caller's goroutine, under RunStage's recover.
	Each(n int, fn func(i int) error) error
	// Barrier charges one exchange's simulated latency.
	Barrier()
}

// Serial is the Scheduler of the single-threaded engines: work items run in
// order on the caller and an exchange costs nothing.
type Serial struct{}

// Each implements Scheduler.
func (Serial) Each(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Barrier implements Scheduler.
func (Serial) Barrier() {}

// Parallel runs fn(i) for i in [0, n) on up to width workers fed from one
// channel and returns the first error. Each work item is guarded: a
// panicking UDF must fail the stage (re-raised on the caller once every
// item ran), not kill the process — and the worker must keep draining the
// feed so the feeding loop never deadlocks.
func Parallel(n, width int, fn func(i int) error) error {
	if width < 1 {
		width = 1
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		return Serial{}.Each(n, fn)
	}
	var trap Trap
	var mu sync.Mutex
	var firstErr error
	call := func(i int) {
		defer trap.Guard()
		if err := fn(i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	trap.Rethrow()
	return firstErr
}

// Do is Each for work items that cannot fail.
func Do(s Scheduler, n int, fn func(i int)) {
	_ = s.Each(n, func(i int) error { // fn returns no error to report
		fn(i)
		return nil
	})
}

// Exchange moves every quantum to the partition route names, placing each
// quantum once: every input partition routes its quanta into a scratch of
// bucket numbers and counts them per bucket, each output partition is
// allocated at its exact size, and every input partition then writes its
// disjoint ranges of the outputs in parallel. Output partition j holds bucket
// j of every input partition, in input order. One partition to one partition
// is no move: the input comes back as it is.
func Exchange(s Scheduler, parts [][]any, p int, route func(q any) int) [][]any {
	p = max(p, 1)
	if p == 1 && len(parts) == 1 {
		return parts
	}
	dest := make([][]int32, len(parts))
	// offs[i*p+j] counts input i's quanta routed to j, then becomes where
	// they start in output partition j.
	offs := make([]int, len(parts)*p)
	Do(s, len(parts), func(i int) {
		d := make([]int32, len(parts[i]))
		count := offs[i*p : (i+1)*p]
		for k, q := range parts[i] {
			j := route(q)
			d[k] = int32(j)
			count[j]++
		}
		dest[i] = d
	})
	out := make([][]any, p)
	for j := range out {
		n := 0
		for i := range parts {
			c := offs[i*p+j]
			offs[i*p+j] = n
			n += c
		}
		out[j] = make([]any, n)
	}
	Do(s, len(parts), func(i int) {
		off := offs[i*p : (i+1)*p]
		for k, q := range parts[i] {
			j := dest[i][k]
			out[j][off[j]] = q
			off[j]++
		}
	})
	return out
}

// HashRoute routes a quantum to the hash bucket of its key, so co-keyed
// quanta of every input routed with the same p share a partition.
func HashRoute(key func(any) any, p int) func(q any) int {
	n := uint64(max(p, 1))
	return func(q any) int { return int(HashKey(core.GroupKey(key(q))) % n) }
}

// RangeRoute routes a quantum to one of p ordered ranges under less, cut at
// splitters drawn from a sample of up to 20 quanta per partition: every
// quantum of range j orders at or before every quantum of range j+1.
func RangeRoute(parts [][]any, p int, less func(a, b any) bool) func(q any) int {
	var sample []any
	for _, part := range parts {
		step := len(part)/20 + 1
		for i := 0; i < len(part); i += step {
			sample = append(sample, part[i])
		}
	}
	core.SortAny(sample, less)
	splitters := make([]any, 0, max(p-1, 0))
	for i := 1; i < p; i++ {
		if idx := i * len(sample) / p; idx < len(sample) {
			splitters = append(splitters, sample[idx])
		}
	}
	return func(q any) int {
		return sort.Search(len(splitters), func(i int) bool { return less(q, splitters[i]) })
	}
}

// gather concatenates partitions in order; a lone partition is returned as
// it is.
func gather(parts [][]any) []any {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	out := make([]any, 0, n)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// keyed is the co-partitioned shape: every input is exchanged on its key
// into p = the largest input partition count partitions and kernel runs once
// per partition over the co-located sides (right is nil for a unary
// operator).
func keyed(s Scheduler, in [][][]any, keys []func(any) any, kernel func(left, right []any) []any) [][]any {
	p := 1
	for i := range keys {
		p = max(p, len(in[i]))
	}
	s.Barrier()
	sides := [2][][]any{nil, make([][]any, p)}
	for i, key := range keys {
		sides[i] = Exchange(s, in[i], p, HashRoute(key, p))
	}
	out := make([][]any, p)
	Do(s, p, func(j int) { out[j] = kernel(sides[0][j], sides[1][j]) })
	return out
}

// eachPart runs kernel over every partition on the scheduler's workers.
func eachPart(s Scheduler, parts [][]any, kernel func(part []any) []any) [][]any {
	out := make([][]any, len(parts))
	Do(s, len(parts), func(i int) { out[i] = kernel(parts[i]) })
	return out
}

// folded is the fold shape: kernel over every partition, then once more over
// the gathered partials; one output partition.
func folded(s Scheduler, parts [][]any, kernel func(part []any) []any) [][]any {
	return [][]any{kernel(gather(eachPart(s, parts, kernel)))}
}

func identity(q any) any { return q }

// ApplyBlocking evaluates one of the thirteen kinds above over its inputs'
// row partitions; round is the loop round a sample draws for. The kinds take
// five shapes. Keyed (distinct, intersect, group-by, co-group, sort, and a
// join whose right side is not small beside its left): co-partition the
// inputs, then one slice kernel per partition — sort exchanges through the
// range route so the output partitions are globally ordered. Fold (count,
// reduce): a kernel per partition, then once more over the gathered
// partials, giving one partition. Broadcast (iejoin, and a join whose right
// side is small beside its left; see join for the rule): gather the right
// side, then a kernel per left partition where it lies. Per partition
// (map-partitions, zip-with-id): a kernel per partition, zip-with-id's ids
// offset by the counts of the partitions before it, so an id is the
// quantum's input position. Whole input (sample, PageRank): sample draws once
// over the gathered input and cuts the draw back into the input's partition
// count; PageRank runs the partitioned algorithm of pageRank. Single-partition
// inputs yield a single output partition. A reduce-by is not here: it is
// always a chain's terminator, run by RunChainParts. The stage harness has
// checked op's UDFs, so what can fail is a sample's unknown method, a
// PageRank input quantum that is no Edge, and a kind outside the table.
func ApplyBlocking(s Scheduler, op *core.Operator, round core.Round, in [][][]any) (out [][]any, err error) {
	switch op.Kind {
	case core.KindDistinct:
		out = keyed(s, in, []func(any) any{identity}, func(part, _ []any) []any { return Distinct(part) })
	case core.KindIntersect:
		out = keyed(s, in, []func(any) any{identity, identity}, Intersect)
	case core.KindGroupBy:
		out = keyed(s, in, []func(any) any{op.UDF.Key}, func(part, _ []any) []any { return GroupByKey(op, part) })
	case core.KindJoin:
		out = join(s, op, in[0], in[1])
	case core.KindCoGroup:
		out = keyed(s, in, []func(any) any{op.UDF.Key, KeyRight(op)}, func(left, right []any) []any {
			return CoGroup(op, left, right)
		})
	case core.KindSort:
		p := max(len(in[0]), 1)
		s.Barrier()
		ranged := Exchange(s, in[0], p, RangeRoute(in[0], p, LessOf(op)))
		out = eachPart(s, ranged, func(part []any) []any { return Sort(op, part) })
	case core.KindCount:
		var n int64
		for _, part := range in[0] { // the per-partition kernel is len
			n += int64(len(part))
		}
		out = [][]any{{n}}
	case core.KindReduce:
		out = folded(s, in[0], func(part []any) []any { return Reduce(op, part) })
	case core.KindIEJoin:
		right := gather(in[1])
		s.Barrier()
		out = eachPart(s, in[0], func(part []any) []any { return IEJoinSlices(op, part, right) })
	case core.KindMapPart:
		// The UDF may write to what it is handed: the one copy of the
		// partition-ownership rule.
		out = eachPart(s, in[0], func(part []any) []any { return op.UDF.MapPart(slices.Clone(part)) })
	case core.KindZipWithID:
		out = zipWithID(s, in[0])
	case core.KindSample:
		var drawn []any
		if drawn, err = Sample(op, gather(in[0]), round); err != nil {
			return nil, err
		}
		out = SplitRows(drawn, len(in[0]))
	case core.KindPageRank:
		return pageRank(s, op, in[0])
	default:
		return nil, fmt.Errorf("unsupported operator kind %s", op.Kind)
	}
	return out, nil
}

// join equi-joins in one of two shapes, by the inputs' sizes alone. When the
// right side's quanta times the left side's partition count are at most the
// left side's quanta, the right side is gathered and hashed once and every
// left partition probes that table where it lies (broadcast): the big side
// never moves, and output partition i is left partition i's matches. Otherwise
// both sides are exchanged on the key and each co-located pair is joined
// (keyed). Either shape charges one barrier.
func join(s Scheduler, op *core.Operator, left, right [][]any) [][]any {
	if Parts(right).Count()*int64(len(left)) > Parts(left).Count() {
		return keyed(s, [][][]any{left, right}, []func(any) any{op.UDF.Key, KeyRight(op)}, func(l, r []any) []any {
			return HashJoin(op, l, r)
		})
	}
	table := buildJoin(op, gather(right))
	s.Barrier()
	return eachPart(s, left, func(part []any) []any { return table.probe(op, part) })
}

// zipWithID pairs every quantum with its input position: partition i's ids
// start at the count of the partitions before it.
func zipWithID(s Scheduler, parts [][]any) [][]any {
	offsets := make([]int64, len(parts)+1)
	for i, part := range parts {
		offsets[i+1] = offsets[i] + int64(len(part))
	}
	out := make([][]any, len(parts))
	Do(s, len(parts), func(i int) {
		res := make([]any, len(parts[i]))
		for j, q := range parts[i] {
			res[j] = core.KV{Key: offsets[i] + int64(j), Value: q}
		}
		out[i] = res
	})
	return out
}

// pageRank runs the classic iterative PageRank over Edge quanta: the
// adjacency is exchanged by source vertex so a vertex's out-edges and its
// rank share a partition; every iteration computes the rank contributions
// per partition in parallel, bucketed by the destination's partition, and
// then sums each partition's buckets, one barrier per iteration. Output
// quanta are core.KV{vertex, rank}, one partition per input partition.
func pageRank(s Scheduler, op *core.Operator, edges [][]any) ([][]any, error) {
	iters, damping := PageRankParams(op)
	p := max(len(edges), 1)

	// A quantum that is no Edge routes anywhere; the build below reports it.
	bySrc := Exchange(s, edges, p, HashRoute(func(q any) any {
		edge, _ := q.(core.Edge)
		return edge.Src
	}, p))
	adj := make([]map[int64][]int64, p) // per partition: source -> out-neighbours
	err := s.Each(p, func(i int) error {
		local := map[int64][]int64{}
		for _, q := range bySrc[i] {
			edge, ok := q.(core.Edge)
			if !ok {
				return fmt.Errorf("pagerank: quantum %T is not an Edge", q)
			}
			local[edge.Src] = append(local[edge.Src], edge.Dst)
		}
		adj[i] = local
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every source and every destination holds a rank, on the partition the
	// source exchange would route it to.
	owner := func(v int64) int { return int(HashKey(v) % uint64(p)) }
	ranks := make([]map[int64]float64, p)
	for i := range ranks {
		ranks[i] = map[int64]float64{}
	}
	for i := range adj {
		for v, dsts := range adj[i] {
			ranks[owner(v)][v] = 0
			for _, d := range dsts {
				ranks[owner(d)][d] = 0
			}
		}
	}
	var n int64
	for i := range ranks {
		n += int64(len(ranks[i]))
	}
	if n == 0 {
		return make([][]any, p), nil
	}
	for i := range ranks {
		for v := range ranks[i] {
			ranks[i][v] = 1 / float64(n)
		}
	}

	for it := 0; it < iters; it++ {
		s.Barrier()
		contribs := make([][]map[int64]float64, p) // [source partition][destination partition]
		Do(s, p, func(i int) {
			local := make([]map[int64]float64, p)
			for j := range local {
				local[j] = map[int64]float64{}
			}
			for v, dsts := range adj[i] {
				share := ranks[owner(v)][v] / float64(len(dsts)) // the previous round's ranks: read-only here
				for _, d := range dsts {
					local[owner(d)][d] += share
				}
			}
			contribs[i] = local
		})
		next := make([]map[int64]float64, p)
		Do(s, p, func(j int) {
			nr := make(map[int64]float64, len(ranks[j]))
			for v := range ranks[j] {
				nr[v] = (1 - damping) / float64(n)
			}
			for i := range contribs {
				for v, c := range contribs[i][j] {
					nr[v] += damping * c
				}
			}
			next[j] = nr
		})
		ranks = next
	}

	out := make([][]any, p)
	Do(s, p, func(j int) {
		part := make([]any, 0, len(ranks[j]))
		for v, r := range ranks[j] {
			part = append(part, core.KV{Key: v, Value: r})
		}
		out[j] = part
	})
	return out, nil
}

// RunChainParts runs a compiled chain over partitions at rest, one kernel
// pass per partition on the scheduler's workers, adding each step's emitted
// quanta to counters (aligned with the chain's operators, the absorbed
// reduce-by's last). A chain ending in a reduce-by combines map-side: each
// partition's survivors go straight into a partial aggregate, the partials
// are exchanged on the reduce-by's key, and each exchanged partition is
// merged and emitted, its keys in first-occurrence order. A declarative
// reduce-by merges core.AggState partials, and a single partition finalizes
// in place with no partials, no exchange and no barrier. A UDF reduce-by
// folds its Reduce UDF over keyed slots, and pays one barrier even on a
// single partition, which has nothing to exchange and comes back as one
// partition even when there are none.
func RunChainParts(s Scheduler, kernel *VectorKernel, parts [][]any, counters []*int64) [][]any {
	// run passes partition i through the narrow steps — into st or f when the
	// chain reduces — and flushes the partition's step counts.
	run := func(i int, st *core.AggState, f *keyFold) (out []any) {
		counts := make([]int64, kernel.Len())
		switch {
		case st != nil:
			kernel.RunAgg(parts[i], counts, st)
		case f != nil:
			kernel.runFold(parts[i], counts, f)
		default:
			out = kernel.Run(parts[i], counts, nil)
		}
		for step, n := range counts {
			atomic.AddInt64(counters[step], n)
		}
		return out
	}
	out := make([][]any, len(parts))
	switch agg, fold := kernel.Agg(), kernel.fold(); {
	case agg == nil && fold == nil:
		Do(s, len(parts), func(i int) { out[i] = run(i, nil, nil) })
		return out
	case fold != nil && len(parts) <= 1:
		f := newKeyFold(fold)
		if len(parts) == 1 {
			run(0, nil, f)
		}
		s.Barrier()
		out = [][]any{kernel.emit(f.vals)}
	case fold != nil:
		partials := make([][]any, len(parts))
		Do(s, len(parts), func(i int) {
			f := newKeyFold(fold)
			run(i, nil, f)
			partials[i] = f.vals
		})
		s.Barrier()
		shuffled := Exchange(s, partials, len(parts), HashRoute(fold.UDF.Key, len(parts)))
		Do(s, len(parts), func(j int) {
			f := newKeyFold(fold)
			f.add(shuffled[j])
			out[j] = kernel.emit(f.vals)
		})
	case len(parts) == 1:
		st := core.NewAggState(agg)
		run(0, st, nil)
		out[0] = kernel.Finalize(st)
	default:
		partials := make([][]any, len(parts))
		Do(s, len(parts), func(i int) {
			st := core.NewAggState(agg)
			run(i, st, nil)
			partials[i] = st.Partials(nil)
		})
		s.Barrier()
		shuffled := Exchange(s, partials, len(parts), HashRoute(agg.PartialKeyFn(), len(parts)))
		Do(s, len(parts), func(j int) {
			st := core.NewAggState(agg)
			st.AbsorbPartials(shuffled[j])
			out[j] = kernel.Finalize(st)
		})
	}
	for _, part := range out {
		*counters[kernel.Len()] += int64(len(part))
	}
	return out
}
