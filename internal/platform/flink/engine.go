package flink

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// flow is the engine's native data: a lazily evaluated parallel stream.
// start launches the producing goroutines and returns one channel per
// parallel instance; producers close their channels when exhausted. Narrow
// operators chain onto flows without materialization — the whole narrow
// pipeline runs as one pass of communicating goroutines. UDF panics inside
// instance goroutines land in errBox and resurface at materialization.
type flow struct {
	start  func() []chan any
	width  int
	card   int64 // -1 unknown
	errBox *errBox

	// segs, set on flows over data at rest, holds the per-instance partitions
	// as segment runs (row runs interleaved with column batches). start
	// streams them row by row; ApplyChain hands them to the kernel whole,
	// skipping the channel hop.
	segs [][]core.Segment
}

// errBox collects the first panic observed by any flow goroutine.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

const chanBuf = 256

// restFlow is the flow over data at rest: one segment run per instance.
func restFlow(segs [][]core.Segment) *flow {
	var card int64
	for _, part := range segs {
		for _, s := range part {
			card += int64(s.Len())
		}
	}
	return &flow{
		width: len(segs),
		card:  card,
		segs:  segs,
		start: func() []chan any {
			chans := make([]chan any, len(segs))
			for i := range segs {
				ch := make(chan any, chanBuf)
				chans[i] = ch
				go func(part []core.Segment, out chan any) {
					for _, s := range part {
						rows := s.Rows
						if s.Batch != nil {
							rows = s.Batch.AppendRows(nil)
						}
						for _, q := range rows {
							out <- q
						}
					}
					close(out)
				}(segs[i], ch)
			}
			return chans
		},
	}
}

// materialize drains the flow into per-instance partitions.
func (f *flow) materialize() [][]any {
	chans := f.start()
	parts := make([][]any, len(chans))
	var wg sync.WaitGroup
	for i, ch := range chans {
		wg.Add(1)
		go func(i int, ch chan any) {
			defer wg.Done()
			var part []any
			for q := range ch {
				part = append(part, q)
			}
			parts[i] = part
		}(i, ch)
	}
	wg.Wait()
	return parts
}

func (f *flow) collect() []any {
	parts := f.materialize()
	var out []any
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// narrow chains a per-instance transform onto the flow: each instance gets
// its own goroutine reading its input channel and writing its output.
func (f *flow) narrow(card int64, transform func(in <-chan any, out chan<- any)) *flow {
	box := f.errBox
	if box == nil {
		box = &errBox{}
	}
	return &flow{
		width:  f.width,
		card:   card,
		errBox: box,
		start: func() []chan any {
			ins := f.start()
			outs := make([]chan any, len(ins))
			for i := range ins {
				out := make(chan any, chanBuf)
				outs[i] = out
				go func(in <-chan any, out chan<- any) {
					defer close(out)
					defer func() {
						if r := recover(); r != nil {
							box.set(fmt.Errorf("flink: UDF panic: %v", r))
							// Drain the input so upstream producers unblock.
							for range in {
							}
						}
					}()
					transform(in, out)
				}(ins[i], out)
			}
			return outs
		},
	}
}

// exchange hash-partitions the flow's quanta by key into width buckets.
func (f *flow) exchange(width int, key func(any) any) [][]any {
	parts := f.materialize()
	buckets := make([][][]any, len(parts))
	fanOut(len(parts), func(i int) error {
		local := make([][]any, width)
		for _, q := range parts[i] {
			h := int(driverutil.HashKey(core.GroupKey(key(q))) % uint64(width))
			local[h] = append(local[h], q)
		}
		buckets[i] = local
		return nil
	})
	out := make([][]any, width)
	for j := 0; j < width; j++ {
		for i := range buckets {
			out[j] = append(out[j], buckets[i][j]...)
		}
	}
	return out
}

// fanOut runs fn(i) for i in [0, n) on one goroutine each and returns the
// first error. fn runs user code: a panic in it is trapped and re-raised on
// the caller, so it fails the stage, not the process.
func fanOut(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var trap driverutil.Trap
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer trap.Guard()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	trap.Rethrow()
	return firstErr
}

// parallelParts applies fn per partition concurrently, collecting errors.
func parallelParts(parts [][]any, fn func(part []any) ([]any, error)) ([][]any, error) {
	out := make([][]any, len(parts))
	err := fanOut(len(parts), func(i int) (err error) {
		out[i], err = fn(parts[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

type engine struct {
	driver *Driver
	stage  *core.Stage
}

func (e *engine) width() int { return e.driver.Conf.Parallelism }

// split cuts data into one balanced row run per parallel instance.
func (e *engine) split(data []any) [][]core.Segment {
	return driverutil.SplitSegments([]core.Segment{{Rows: data}}, e.width())
}

func (e *engine) exchangeBarrier() { sleepMs(e.driver.Conf.ExchangeLatencyMs) }

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (driverutil.Data, error) {
	switch ch.Desc.Name {
	case "dataset":
		ds, ok := ch.Payload.(*DataSet)
		if !ok {
			return nil, fmt.Errorf("flink: channel dataset payload %T", ch.Payload)
		}
		return restFlow(ds.Parts), nil
	case "collection", "file":
		segs, err := driverutil.ChannelSegments(ch)
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.SplitSegments(segs, e.width())), nil
	case "dfs":
		if e.driver.DFS == nil {
			return nil, fmt.Errorf("flink: no DFS configured")
		}
		segs, err := driverutil.ReadDFSQuantaSegments(e.driver.DFS, ch.Payload.(string))
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.SplitSegments(segs, e.width())), nil
	default:
		return nil, fmt.Errorf("flink: unsupported input channel %q", ch.Desc.Name)
	}
}

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, d driverutil.Data) (*core.Channel, error) {
	f, ok := d.(*flow)
	if !ok {
		return nil, fmt.Errorf("flink: %s produced %T, not a flow", op, d)
	}
	parts := f.materialize()
	if f.errBox != nil {
		if err := f.errBox.get(); err != nil {
			return nil, err
		}
	}
	ds := &DataSet{Parts: driverutil.RowSegments(parts)}
	if op.Kind == core.KindCollectionSink {
		data := ds.Collect()
		return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
	}
	return core.NewChannel(DataSetChannel, ds, ds.Count()), nil
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []driverutil.Data, bc core.BroadcastCtx, round int, counter *int64, sniff func(any)) (driverutil.Data, error) {
	ins := make([]*flow, len(in))
	for i, d := range in {
		f, ok := d.(*flow)
		if !ok {
			return nil, fmt.Errorf("flink: %s input %d is %T, not a flow", op, i, d)
		}
		ins[i] = f
	}
	out, err := e.apply(op, ins, round)
	if err != nil {
		return nil, err
	}
	observed := out.narrow(out.card, func(in <-chan any, o chan<- any) {
		for q := range in {
			// Count atomically-enough: instances contend rarely and the
			// harness reads the counter only after the stage completes.
			countMu.Lock()
			*counter++
			if sniff != nil {
				sniff(q)
			}
			countMu.Unlock()
			o <- q
		}
	})
	if driverutil.StageConsumers(e.stage, op) > 1 {
		parts := observed.materialize()
		var n int64
		for _, p := range parts {
			n += int64(len(p))
		}
		*counter = n
		return restFlow(driverutil.RowSegments(parts)), nil
	}
	return observed, nil
}

var countMu sync.Mutex

// fuseBatch is the vector size fused chains batch quanta in: the whole
// chain runs over one vector per kernel invocation, amortizing channel
// sends and reusing one output buffer instead of paying one send (and one
// goroutine hop) per quantum per operator. Chains whose leading steps
// compiled to column loops use the larger Config.VecChainBatch so the
// per-batch row→column conversion amortizes over more rows.
const fuseBatch = 256

// ApplyChain implements driverutil.ChainEngine. A chain over a lazy flow
// runs pipelined (streamChain). Data at rest — a flow built by restFlow,
// whose segments then skip the channel hop (and its column batches the
// row→column rebuild), or the drained input of a chain ending in a
// declarative aggregation — goes to the kernel whole, one goroutine per
// instance. The
// aggregation is per-instance vectorized pre-aggregation, one exchange of
// the group partials on the partial key, then per-instance merge and
// finalize, so group emission order is first occurrence per exchanged
// instance.
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, in driverutil.Data, counters []*int64) (driverutil.Data, error) {
	f, ok := in.(*flow)
	if !ok {
		return nil, fmt.Errorf("flink: fused chain input is %T, not a flow", in)
	}
	agg := kernel.Agg()
	if agg == nil && f.segs == nil {
		return e.streamChain(chain, kernel, f, counters)
	}
	segs := f.segs
	if segs == nil { // a lazy flow feeding an aggregation: drain it
		parts := f.materialize()
		if f.errBox != nil {
			if err := f.errBox.get(); err != nil {
				return nil, err
			}
		}
		segs = driverutil.RowSegments(parts)
	}
	out := make([][]any, len(segs))
	fanOut(len(segs), func(i int) error {
		counts := make([]int64, kernel.Len())
		if agg == nil {
			out[i] = kernel.RunSegments(segs[i], counts, nil)
		} else {
			st := core.NewAggState(agg)
			kernel.RunSegmentsAgg(segs[i], counts, st)
			out[i] = st.Partials(nil)
		}
		for s, c := range counts {
			atomic.AddInt64(counters[s], c)
		}
		return nil
	})
	if agg == nil {
		return restFlow(driverutil.RowSegments(out)), nil
	}
	e.exchangeBarrier()
	shuffled := restFlow(driverutil.RowSegments(out)).exchange(e.width(), agg.PartialKeyFn())
	out, err := parallelParts(shuffled, func(part []any) ([]any, error) {
		st := core.NewAggState(agg)
		st.AbsorbPartials(part)
		return kernel.Finalize(st), nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range out {
		*counters[kernel.Len()] += int64(len(p))
	}
	return restFlow(driverutil.RowSegments(out)), nil
}

// streamChain runs a narrow chain as a single goroutine pipeline segment per
// instance. Quanta are batched into vectors of fuseBatch and pushed through
// the compiled kernel in one pass; per-step counts transfer to the shared
// counters when the segment drains, without Apply's per-quantum countMu.
func (e *engine) streamChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, f *flow, counters []*int64) (driverutil.Data, error) {
	box := f.errBox
	if box == nil {
		box = &errBox{}
	}
	out := &flow{
		width:  f.width,
		card:   -1,
		errBox: box,
		start: func() []chan any {
			ins := f.start()
			outs := make([]chan any, len(ins))
			for i := range ins {
				o := make(chan any, chanBuf)
				outs[i] = o
				go func(in <-chan any, out chan<- any) {
					counts := make([]int64, kernel.Len())
					defer close(out)
					defer func() {
						for s, c := range counts {
							atomic.AddInt64(counters[s], c)
						}
					}()
					defer func() {
						if r := recover(); r != nil {
							box.set(fmt.Errorf("flink: UDF panic: %v", r))
							// Drain the input so upstream producers unblock.
							for range in {
							}
						}
					}()
					batch := fuseBatch
					if kernel.VecLen() > 0 {
						batch = e.driver.Conf.VecChainBatch
					}
					vec := make([]any, 0, batch)
					var buf []any
					flush := func() {
						buf = kernel.Run(vec, counts, buf[:0])
						for _, q := range buf {
							out <- q
						}
						vec = vec[:0]
					}
					for q := range in {
						vec = append(vec, q)
						if len(vec) == batch {
							flush()
						}
					}
					if len(vec) > 0 {
						flush()
					}
				}(ins[i], o)
			}
			return outs
		},
	}
	if driverutil.StageConsumers(e.stage, chain.Tail()) > 1 {
		parts := out.materialize()
		if err := box.get(); err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(parts)), nil
	}
	return out, nil
}

func (e *engine) apply(op *core.Operator, in []*flow, round int) (*flow, error) {
	w := e.width()
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 {
			return in[0], nil
		}
		return restFlow(e.split(op.Params.Collection)), nil

	case core.KindTextFileSource:
		data, err := driverutil.ReadTextLines(e.driver.DFS, op.Params.Path)
		if err != nil {
			return nil, err
		}
		return restFlow(e.split(data)), nil

	case core.KindMapPart:
		if op.UDF.MapPart == nil {
			return nil, fmt.Errorf("map-partitions %s lacks a UDF", op)
		}
		f := op.UDF.MapPart
		return in[0].narrow(-1, func(src <-chan any, out chan<- any) {
			var part []any
			for q := range src {
				part = append(part, q)
			}
			for _, q := range f(part) {
				out <- q
			}
		}), nil

	case core.KindZipWithID:
		// Instance i assigns ids i, i+w, i+2w, ... (dense and unique).
		width := int64(in[0].width)
		src := in[0]
		return &flow{width: src.width, card: src.card, start: func() []chan any {
			ins := src.start()
			outs := make([]chan any, len(ins))
			for i := range ins {
				out := make(chan any, chanBuf)
				outs[i] = out
				go func(inst int64, in <-chan any, out chan<- any) {
					id := inst
					for q := range in {
						out <- core.KV{Key: id, Value: q}
						id += width
					}
					close(out)
				}(int64(i), ins[i], out)
			}
			return outs
		}}, nil

	case core.KindSample:
		data, err := driverutil.Sample(op, in[0].collect(), round)
		if err != nil {
			return nil, err
		}
		return restFlow(e.split(data)), nil

	case core.KindDistinct:
		e.exchangeBarrier()
		parts := in[0].exchange(w, func(q any) any { return q })
		out, err := parallelParts(parts, func(part []any) ([]any, error) {
			return driverutil.Distinct(part), nil
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindSort:
		// Flink sorts within instances and merges at the sink; a single
		// merged run keeps semantics identical across engines.
		e.exchangeBarrier()
		parts := in[0].materialize()
		sorted, err := parallelParts(parts, func(part []any) ([]any, error) {
			return driverutil.Sort(op, part), nil
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments([][]any{mergeRuns(sorted, driverutil.LessOf(op))})), nil

	case core.KindCount:
		var n int64
		for _, part := range in[0].materialize() {
			n += int64(len(part))
		}
		return restFlow(driverutil.RowSegments([][]any{{n}})), nil

	case core.KindReduce:
		parts := in[0].materialize()
		partials, err := parallelParts(parts, func(part []any) ([]any, error) {
			return driverutil.Reduce(op, part)
		})
		if err != nil {
			return nil, err
		}
		var all []any
		for _, p := range partials {
			all = append(all, p...)
		}
		out, err := driverutil.Reduce(op, all)
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments([][]any{out})), nil

	case core.KindReduceBy:
		if op.UDF.Key == nil || op.UDF.Reduce == nil {
			return nil, fmt.Errorf("reduce-by %s lacks key or reduce UDF", op)
		}
		e.exchangeBarrier()
		parts := in[0].exchange(w, op.UDF.Key)
		out, err := parallelParts(parts, func(part []any) ([]any, error) {
			return driverutil.ReduceByKey(op, part)
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindGroupBy:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("group-by %s lacks a key UDF", op)
		}
		e.exchangeBarrier()
		parts := in[0].exchange(w, op.UDF.Key)
		out, err := parallelParts(parts, func(part []any) ([]any, error) {
			return driverutil.GroupByKey(op, part)
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindCache:
		return restFlow(driverutil.RowSegments(in[0].materialize())), nil

	case core.KindJoin:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("join %s lacks a key UDF", op)
		}
		e.exchangeBarrier()
		ls := in[0].exchange(w, op.UDF.Key)
		rs := in[1].exchange(w, driverutil.KeyRight(op))
		out := make([][]any, w)
		err := fanOut(w, func(i int) (err error) {
			out[i], err = driverutil.HashJoin(op, ls[i], rs[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindIEJoin:
		right := in[1].collect()
		e.exchangeBarrier()
		out, err := parallelParts(in[0].materialize(), func(part []any) ([]any, error) {
			return driverutil.IEJoinSlices(op, part, right)
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindCartesian:
		combine := driverutil.Combine(op)
		right := in[1].collect()
		return in[0].narrow(-1, func(src <-chan any, out chan<- any) {
			for l := range src {
				for _, r := range right {
					out <- combine(l, r)
				}
			}
		}), nil

	case core.KindUnion:
		left, right := in[0], in[1]
		return &flow{width: left.width + right.width, card: driverutil.AddCards(left.card, right.card), start: func() []chan any {
			return append(left.start(), right.start()...)
		}}, nil

	case core.KindIntersect:
		e.exchangeBarrier()
		id := func(q any) any { return q }
		ls := in[0].exchange(w, id)
		rs := in[1].exchange(w, id)
		out := make([][]any, w)
		fanOut(w, func(i int) error {
			out[i] = driverutil.Intersect(ls[i], rs[i])
			return nil
		})
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindCoGroup:
		if op.UDF.Key == nil {
			return nil, fmt.Errorf("co-group %s lacks a key UDF", op)
		}
		e.exchangeBarrier()
		ls := in[0].exchange(w, op.UDF.Key)
		rs := in[1].exchange(w, driverutil.KeyRight(op))
		out := make([][]any, w)
		err := fanOut(w, func(i int) (err error) {
			out[i], err = driverutil.CoGroup(op, ls[i], rs[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		return restFlow(driverutil.RowSegments(out)), nil

	case core.KindPageRank:
		out, err := e.pageRank(op, in[0].collect())
		if err != nil {
			return nil, err
		}
		return restFlow(e.split(out)), nil

	case core.KindCollectionSink:
		return restFlow(driverutil.RowSegments(in[0].materialize())), nil

	case core.KindTextFileSink:
		data := in[0].collect()
		if err := driverutil.WriteTextLines(e.driver.DFS, op, data); err != nil {
			return nil, err
		}
		return restFlow(e.split(data)), nil

	default:
		return nil, fmt.Errorf("flink: unsupported operator kind %s", op.Kind)
	}
}

func mergeRuns(runs [][]any, less func(a, b any) bool) []any {
	var out []any
	idx := make([]int, len(runs))
	for {
		best := -1
		for i, run := range runs {
			if idx[i] >= len(run) {
				continue
			}
			if best < 0 || less(run[idx[i]], runs[best][idx[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
}

// pageRank: pipelined engines run PageRank as repeated dataflow rounds; we
// keep adjacency thread-local per instance and exchange rank contributions
// between rounds.
func (e *engine) pageRank(op *core.Operator, edgeQuanta []any) ([]any, error) {
	iters := op.Params.Iterations
	if iters <= 0 {
		iters = 10
	}
	damping := op.Params.DampingFactor
	if damping <= 0 {
		damping = 0.85
	}
	adj := map[int64][]int64{}
	vertices := map[int64]bool{}
	for _, q := range edgeQuanta {
		edge, ok := q.(core.Edge)
		if !ok {
			return nil, fmt.Errorf("flink.pagerank: quantum %T is not an Edge", q)
		}
		adj[edge.Src] = append(adj[edge.Src], edge.Dst)
		vertices[edge.Src] = true
		vertices[edge.Dst] = true
	}
	n := len(vertices)
	if n == 0 {
		return nil, nil
	}
	ranks := make(map[int64]float64, n)
	for v := range vertices {
		ranks[v] = 1.0 / float64(n)
	}
	// Parallel rounds: split the source vertices across instances.
	srcs := make([]int64, 0, len(adj))
	for v := range adj {
		srcs = append(srcs, v)
	}
	w := e.width()
	for it := 0; it < iters; it++ {
		e.exchangeBarrier()
		partials := make([]map[int64]float64, w)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				local := map[int64]float64{}
				for j := i; j < len(srcs); j += w {
					v := srcs[j]
					dsts := adj[v]
					share := ranks[v] / float64(len(dsts))
					for _, d := range dsts {
						local[d] += share
					}
				}
				partials[i] = local
			}(i)
		}
		wg.Wait()
		next := make(map[int64]float64, n)
		base := (1 - damping) / float64(n)
		for v := range vertices {
			next[v] = base
		}
		for _, local := range partials {
			for v, c := range local {
				next[v] += damping * c
			}
		}
		ranks = next
	}
	out := make([]any, 0, n)
	for v, r := range ranks {
		out = append(out, core.KV{Key: v, Value: r})
	}
	return out, nil
}
