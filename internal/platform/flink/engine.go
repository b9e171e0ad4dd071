package flink

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/simclock"
)

// flow is the engine's native data: a lazily evaluated parallel stream.
// start launches the producing goroutines and returns one channel per
// parallel instance; producers close their channels when exhausted. Narrow
// operators chain onto flows without materialization — the whole narrow
// pipeline runs as one pass of communicating goroutines. UDF panics inside
// instance goroutines land in the stage's errBox and resurface when the flow
// is drained.
type flow struct {
	start func() []chan any
	width int
	card  int64 // -1 unknown

	// parts, set on flows over data at rest, holds the per-instance
	// partitions. start streams them; blocking operators, ApplyChain and
	// ToChannel read them where they lie, skipping the channel hop.
	parts driverutil.Parts
}

// errBox collects the first panic observed by any flow goroutine of a stage.
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

// restFlow is the flow over data at rest: one partition per instance.
func restFlow(parts driverutil.Parts) *flow {
	return &flow{
		width: len(parts),
		card:  parts.Count(),
		parts: parts,
		start: func() []chan any {
			chans := make([]chan any, len(parts))
			for i := range parts {
				ch := make(chan any, chanBuf)
				chans[i] = ch
				go func(part []any, out chan any) {
					for _, q := range part {
						out <- q
					}
					close(out)
				}(parts[i], ch)
			}
			return chans
		},
	}
}

// engine interprets one stage (it is built per Execute). It is also the
// driverutil.Scheduler of flink's blocking operators: one goroutine per
// parallel instance, and every exchange is a Latency barrier, charged on the
// stage's clock.
type engine struct {
	driver *Driver
	stage  *core.Stage
	clock  *simclock.Clock
	errs   errBox // the first UDF panic of any of the stage's flow goroutines
}

// Each implements driverutil.Scheduler.
func (e *engine) Each(n int, fn func(i int) error) error { return driverutil.Parallel(n, n, fn) }

// Barrier implements driverutil.Scheduler.
func (e *engine) Barrier() { e.driver.Barrier(e.clock) }

// split is the flow over data at rest, cut into one balanced row run per
// parallel instance.
func (e *engine) split(data []any) *flow {
	return restFlow(e.driver.dataset(data).Parts)
}

// materialize is the single read of a flow: per-instance row partitions, and
// the stage's first UDF panic if any flow goroutine recorded one by the time
// the drain ended. Data at rest is read where it lies.
func (e *engine) materialize(f *flow) ([][]any, error) {
	if f.parts != nil {
		return f.parts, nil
	}
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
	return parts, e.errs.get()
}

// rest returns the flow at rest: as it is when it already is, drained
// otherwise.
func (e *engine) rest(f *flow) (*flow, error) {
	if f.parts != nil {
		return f, nil
	}
	parts, err := e.materialize(f)
	if err != nil {
		return nil, err
	}
	return restFlow(parts), nil
}

// collect gathers the flow's quanta into one slice of its own.
func (e *engine) collect(f *flow) ([]any, error) {
	r, err := e.rest(f)
	if err != nil {
		return nil, err
	}
	return r.parts.Collect(), nil
}

// narrow chains a per-instance transform onto the flow: each instance gets
// its own goroutine reading its input channel and writing its output.
func (e *engine) narrow(f *flow, card int64, transform func(inst int, in <-chan any, out chan<- any)) *flow {
	return &flow{
		width: f.width,
		card:  card,
		start: func() []chan any {
			ins := f.start()
			outs := make([]chan any, len(ins))
			for i := range ins {
				out := make(chan any, chanBuf)
				outs[i] = out
				go func(inst int, in <-chan any, out chan<- any) {
					defer close(out)
					defer func() {
						if r := recover(); r != nil {
							e.errs.set(fmt.Errorf("flink: UDF panic: %v", r))
							// Drain the input so upstream producers unblock.
							for range in {
							}
						}
					}()
					transform(inst, in, out)
				}(i, ins[i], out)
			}
			return outs
		},
	}
}

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (*flow, error) {
	if ch.Desc.Name == "dataset" {
		ds, ok := ch.Payload.(*DataSet)
		if !ok {
			return nil, fmt.Errorf("flink: channel dataset payload %T", ch.Payload)
		}
		return restFlow(ds.Parts), nil
	}
	data, err := driverutil.NeutralSlice(e.driver.DFS, ch)
	if err != nil {
		return nil, fmt.Errorf("flink: %w", err)
	}
	return restFlow(e.driver.dataset(data).Parts), nil
}

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, f *flow) (*core.Channel, error) {
	r, err := e.rest(f)
	if err != nil {
		return nil, err
	}
	ds := &DataSet{r.parts}
	if op.Kind == core.KindCollectionSink {
		return driverutil.CollectionOf(ds.Collect()), nil
	}
	return ds.channel(), nil
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []*flow, round int, counter *int64, sniff func(any)) (*flow, error) {
	out, err := e.apply(op, in, round)
	if err != nil {
		return nil, err
	}
	// Data at rest is observed where it lies: its cardinality is known and a
	// sniffer can walk it now.
	if out.parts != nil {
		if sniff == nil {
			*counter = out.card
		} else {
			driverutil.Observe(out.parts, counter, sniff)
		}
		return out, nil
	}
	// A lazy flow is observed as it streams by: counted per instance and added
	// when the instance drains, sniffed one instance at a time.
	var sniffMu sync.Mutex
	observed := e.narrow(out, out.card, func(_ int, in <-chan any, o chan<- any) {
		var n int64
		defer func() { atomic.AddInt64(counter, n) }()
		for q := range in {
			n++
			if sniff != nil {
				sniffMu.Lock()
				sniff(q)
				sniffMu.Unlock()
			}
			o <- q
		}
	})
	if driverutil.StageConsumers(e.stage, op) > 1 {
		return e.rest(observed)
	}
	return observed, nil
}

// fuseBatch is the vector size fused chains batch quanta in: the whole
// chain runs over one vector per kernel invocation, amortizing channel
// sends and reusing one output buffer instead of paying one send (and one
// goroutine hop) per quantum per operator. Chains whose leading steps
// compiled to column loops use the larger vecChainBatch so the per-batch
// row→column conversion amortizes over more rows.
const (
	fuseBatch     = 256
	vecChainBatch = 4096
)

// ApplyChain implements driverutil.ChainEngine. A chain over a lazy flow
// runs pipelined (streamChain). Data at rest — a flow built by restFlow, or
// the drained input of a chain ending in a reduce-by — goes to the kernel
// whole, one goroutine per instance (driverutil.RunChainParts), skipping the
// channel hop.
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, f *flow, counters []*int64) (*flow, error) {
	if !kernel.Reduces() && f.parts == nil {
		return e.streamChain(chain, kernel, f, counters)
	}
	r, err := e.rest(f)
	if err != nil {
		return nil, err
	}
	return restFlow(driverutil.RunChainParts(e, kernel, r.parts, counters)), nil
}

// streamChain runs a narrow chain as a single goroutine pipeline segment per
// instance. Quanta are batched into vectors of fuseBatch and pushed through
// the compiled kernel in one pass; per-step counts transfer to the shared
// counters when the segment drains, without a per-quantum lock.
func (e *engine) streamChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, f *flow, counters []*int64) (*flow, error) {
	batch := fuseBatch
	if kernel.VecLen() > 0 {
		batch = vecChainBatch
	}
	out := e.narrow(f, -1, func(_ int, in <-chan any, out chan<- any) {
		counts := make([]int64, kernel.Len())
		defer func() {
			for s, c := range counts {
				atomic.AddInt64(counters[s], c)
			}
		}()
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
	})
	if driverutil.StageConsumers(e.stage, chain.Tail()) > 1 {
		return e.rest(out)
	}
	return out, nil
}

// apply evaluates the kinds flink's archetype owns — sources, sinks, cache
// and the lazy cartesian and union; every other kind is the default arm,
// driverutil.ApplyBlocking over the inputs' materialized partitions.
func (e *engine) apply(op *core.Operator, in []*flow, round int) (*flow, error) {
	switch op.Kind {
	case core.KindCollectionSource:
		if len(in) > 0 {
			return in[0], nil
		}
		return e.split(op.Params.Collection), nil

	case core.KindTextFileSource:
		parts, err := driverutil.ReadTextParts(e, e.driver.DFS, op.Params.Path, e.driver.Conf.Parallelism)
		if err != nil {
			return nil, err
		}
		return restFlow(parts), nil

	case core.KindCache, core.KindCollectionSink:
		return e.rest(in[0])

	case core.KindCartesian:
		combine := driverutil.Combine(op)
		right, err := e.collect(in[1])
		if err != nil {
			return nil, err
		}
		return e.narrow(in[0], -1, func(_ int, src <-chan any, out chan<- any) {
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

	case core.KindTextFileSink:
		data, err := e.collect(in[0])
		if err != nil {
			return nil, err
		}
		if err := driverutil.WriteTextLines(e.driver.DFS, op, data); err != nil {
			return nil, err
		}
		return e.split(data), nil

	default:
		ins := make([][][]any, len(in))
		for i, f := range in {
			var err error
			if ins[i], err = e.materialize(f); err != nil {
				return nil, err
			}
		}
		out, err := driverutil.ApplyBlocking(e, op, round, ins)
		if err != nil {
			return nil, err
		}
		return restFlow(out), nil
	}
}
