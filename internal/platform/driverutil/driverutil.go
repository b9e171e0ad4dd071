// Package driverutil hosts the stage-interpretation harness shared by the
// platform drivers. Each engine supplies the platform-specific parts — how
// channels map to its native data representation and how one operator is
// evaluated over that representation — and RunStage does the bookkeeping:
// resolving stage-internal vs. external inputs, opening UDF broadcast
// contexts, counting cardinalities, timing operators, and materializing
// terminal outputs into channels for the executor. The rest of what is
// standard about a platform — mapping registration, start-up, typed
// conversions — is in platform.go; the blocking operators in blocking.go.
package driverutil

import (
	"fmt"
	"sync"
	"time"

	"rheem/internal/core"
)

// Trap collects the first panic observed by an engine's worker goroutines
// so the caller can re-raise it on its own goroutine, under RunStage's
// recover — a panic on a bare worker goroutine would kill the process
// instead of failing the stage. Use as: `defer trap.Guard()` in each
// worker (or around each work item, if the worker must keep draining a
// feed channel), then `trap.Rethrow()` after the wait point.
type Trap struct {
	mu  sync.Mutex
	val any
	set bool
}

// Guard recovers a panic on the calling goroutine and records the first
// one. It must be invoked directly by defer.
func (t *Trap) Guard() {
	if r := recover(); r != nil {
		t.mu.Lock()
		if !t.set {
			t.val, t.set = r, true
		}
		t.mu.Unlock()
	}
}

// Rethrow re-raises the recorded panic, if any, on the calling goroutine.
func (t *Trap) Rethrow() {
	t.mu.Lock()
	val, set := t.val, t.set
	t.mu.Unlock()
	if set {
		panic(val)
	}
}

// Engine is the platform-specific part of stage execution. T is the engine's
// native representation of a dataset (an iterator pipeline, a partitioned RDD,
// a table reference, ...): the harness hands an engine nothing but what that
// engine produced, and the type says so.
type Engine[T any] interface {
	// FromChannel converts an external input channel into native data.
	FromChannel(ch *core.Channel) (T, error)
	// Apply evaluates one operator over its native inputs; UDFs that take a
	// broadcast context were opened with it beforehand. round is the
	// surrounding loop round (zero outside loops). counter, when
	// incremented per output quantum, yields the operator's true output
	// cardinality (lazy engines increment it as quanta stream by). sniff,
	// when non-nil, must observe every output quantum (exploratory mode).
	Apply(op *core.Operator, in []T, round core.Round, counter *int64, sniff func(any)) (T, error)
	// ToChannel materializes native data into the channel the stage's
	// consumer expects. It is called for terminal operators only.
	ToChannel(op *core.Operator, d T) (*core.Channel, error)
}

// RunStage interprets a stage over an engine. UDF panics are recovered and
// surfaced as stage errors: a broken UDF fails the job, not the process.
func RunStage[T any](e Engine[T], stage *core.Stage, in *core.Inputs) (outs map[*core.Operator]*core.Channel, stats *core.StageStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, stats = nil, nil
			err = fmt.Errorf("%s: UDF panic: %v", stage, r)
		}
	}()
	return runStage(e, stage, in)
}

func runStage[T any](e Engine[T], stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	start := time.Now()
	// Every UDF the operator table requires is present before any kernel
	// compiles or runs: this is where a missing one is reported.
	for _, op := range stage.Ops {
		if err := op.CheckUDFs(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", stage, err)
		}
	}
	results := make(map[*core.Operator]T, len(stage.Ops))
	counters := make(map[*core.Operator]*int64, len(stage.Ops))
	opTimes := make(map[*core.Operator]time.Duration, len(stage.Ops))

	// Plan pipeline fusion: engines that implement ChainEngine run every
	// narrow operator and reduce-by inside a chain kernel; Apply sees the
	// remaining kinds only.
	var chains map[*core.Operator]*FusedChain
	var covered map[*core.Operator]bool
	ce, canFuse := e.(ChainEngine[T])
	if canFuse {
		chains, covered = PlanFusion(stage)
	}
	var fusedChains [][]*core.Operator
	type vecRun struct {
		ops    []*core.Operator
		kernel *VectorKernel
	}
	var vecRuns []vecRun

	for _, op := range stage.Ops {
		if covered[op] {
			continue // runs inside the fused chain rooted at its head
		}
		if chain := chains[op]; chain != nil {
			kernel, elapsed, err := runChain(e, ce, stage, chain, in, results, counters)
			if err != nil {
				return nil, nil, err
			}
			attributeChainTime(chain, counters, elapsed, opTimes)
			// FusedChains (the fused-pipeline span and counter) reports chains
			// that saved a dispatch: two or more operators in one kernel.
			allOps := chain.AllOps()
			if len(allOps) >= 2 {
				fusedChains = append(fusedChains, allOps)
			}
			if kernel.VecLen() > 0 || kernel.Agg() != nil {
				vecRuns = append(vecRuns, vecRun{ops: allOps, kernel: kernel})
			}
			continue
		}
		ins, err := resolveInputs(e, stage, op, in, results)
		if err != nil {
			return nil, nil, err
		}
		bc, err := broadcastCtx(op, in)
		if err != nil {
			return nil, nil, err
		}
		if op.UDF.Open != nil {
			op.UDF.Open(bc)
		}
		var counter int64
		counters[op] = &counter
		var sniff func(any)
		if stage.Sniffers != nil {
			sniff = stage.Sniffers[op]
		}
		opStart := time.Now()
		d, err := e.Apply(op, ins, in.Round, &counter, sniff)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", stage, op, err)
		}
		opTimes[op] = time.Since(opStart)
		results[op] = d
	}

	outs := make(map[*core.Operator]*core.Channel, len(stage.TerminalOuts))
	for _, op := range stage.TerminalOuts {
		matStart := time.Now()
		ch, err := e.ToChannel(op, results[op])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: materialize %s: %w", stage, op, err)
		}
		opTimes[op] += time.Since(matStart)
		if ch.Card < 0 && counters[op] != nil {
			ch.Card = *counters[op]
		}
		outs[op] = ch
	}

	stats := &core.StageStats{
		Stage:       stage,
		Runtime:     time.Since(start),
		Ops:         map[*core.Operator]core.OpStats{},
		FusedChains: fusedChains,
	}
	// Vectorized-run counters are read after the terminal-out loop: lazy
	// engines only run their kernels when ToChannel materializes the flow.
	// Chains whose column path never engaged — a sniffed prefix, or every
	// partition empty — are not reported: Vectorized describes what the
	// columnar plane actually did, not what compiled.
	for _, vr := range vecRuns {
		batches, rows, fallbacks, aggBatches, aggRows := vr.kernel.Stats()
		if batches == 0 && fallbacks == 0 {
			continue
		}
		stats.Vectorized = append(stats.Vectorized, core.VectorChainStats{
			Ops:        vr.ops,
			VecSteps:   vr.kernel.VecLen(),
			Batches:    batches,
			Rows:       rows,
			Fallbacks:  fallbacks,
			AggBatches: aggBatches,
			AggRows:    aggRows,
		})
	}
	for op, c := range counters {
		stats.Ops[op] = core.OpStats{OutCard: *c, Runtime: opTimes[op]}
	}
	// Lazy engines accrue all work at materialization; reattribute the stage
	// runtime proportionally to per-operator output cardinalities so the
	// monitor's per-operator times are meaningful ("aware of lazy execution
	// strategies", Section 4.3).
	reattributeLazyTime(stats)
	return outs, stats, nil
}

// runChain resolves the chain head's input, opens every chain operator's
// UDF with its broadcast context, compiles the kernel, and hands the whole
// chain to the engine. The tail's output lands in results; per-op counters
// are registered for all chain operators, so cardinalities stay per operator.
func runChain[T any](e Engine[T], ce ChainEngine[T], stage *core.Stage, chain *FusedChain, in *core.Inputs,
	results map[*core.Operator]T, counters map[*core.Operator]*int64) (*VectorKernel, time.Duration, error) {
	ins, err := resolveInputs(e, stage, chain.Head(), in, results)
	if err != nil {
		return nil, 0, err
	}
	allOps := chain.AllOps()
	ctrs := make([]*int64, len(allOps))
	for i, op := range allOps {
		bc, err := broadcastCtx(op, in)
		if err != nil {
			return nil, 0, err
		}
		if op.UDF.Open != nil {
			op.UDF.Open(bc)
		}
		var counter int64
		counters[op] = &counter
		ctrs[i] = &counter
	}
	kernel, err := chain.Compile()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %s: %w", stage, chain, err)
	}
	// Exploratory-mode sniffers observe inside the kernel, at each step's
	// emission points (the absorbed reduce-by's as it emits). Sniffers are
	// called from one goroutine at a time; a per-chain mutex keeps that
	// contract when the kernel runs on parallel partitions.
	if stage.Sniffers != nil {
		var sniffMu sync.Mutex
		for i, op := range allOps {
			if s := stage.Sniffers[op]; s != nil {
				s := s
				kernel.SetSniff(i, func(q any) {
					sniffMu.Lock()
					s(q)
					sniffMu.Unlock()
				})
			}
		}
	}
	opStart := time.Now()
	d, err := ce.ApplyChain(chain, kernel, ins[0], ctrs)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %s: %w", stage, chain, err)
	}
	results[chain.Out()] = d
	return kernel, time.Since(opStart), nil
}

// attributeChainTime splits a fused chain's elapsed wall time over its
// operators proportionally to their observed output cardinalities (the
// chain runs as one kernel, so per-op times cannot be measured directly).
// When nothing was counted yet — lazy engines run the kernel later — the
// whole elapsed time lands on the tail and reattributeLazyTime takes over.
func attributeChainTime(chain *FusedChain, counters map[*core.Operator]*int64, elapsed time.Duration, opTimes map[*core.Operator]time.Duration) {
	var total int64
	for _, op := range chain.AllOps() {
		total += *counters[op]
	}
	if total == 0 {
		opTimes[chain.Out()] = elapsed
		return
	}
	for _, op := range chain.AllOps() {
		opTimes[op] = time.Duration(float64(elapsed) * float64(*counters[op]) / float64(total))
	}
}

func resolveInputs[T any](e Engine[T], stage *core.Stage, op *core.Operator, in *core.Inputs, results map[*core.Operator]T) ([]T, error) {
	arity := op.Kind.InArity()
	ins := make([]T, arity)
	for port := 0; port < arity; port++ {
		var producer *core.Operator
		if port < len(op.Inputs()) {
			producer = op.Inputs()[port]
		}
		if producer != nil && stage.Contains(producer) {
			d, ok := results[producer]
			if !ok {
				return nil, fmt.Errorf("driverutil: %s consumes %s before it ran (stage op order broken)", op, producer)
			}
			ins[port] = d
			continue
		}
		// External input: the executor must have provided a channel.
		chans := in.Main[op]
		if port >= len(chans) || chans[port] == nil {
			return nil, fmt.Errorf("driverutil: %s input port %d has no channel", op, port)
		}
		ch := chans[port]
		if err := ch.Consume(); err != nil {
			return nil, err
		}
		d, err := e.FromChannel(ch)
		if err != nil {
			return nil, fmt.Errorf("driverutil: %s input port %d: %w", op, port, err)
		}
		ins[port] = d
	}
	// Loop-body placeholders (a CollectionSource with nil Params.Collection):
	// an OuterRef source and the designated LoopInput both receive the channel
	// the executor staged for them in Main, which surfaces as a pseudo-input
	// that engines' Apply recognizes.
	if arity == 0 && op.Kind == core.KindCollectionSource && op.Params.Collection == nil {
		if chans := in.Main[op]; len(chans) > 0 && chans[0] != nil {
			ch := chans[0]
			if err := ch.Consume(); err != nil {
				return nil, err
			}
			d, err := e.FromChannel(ch)
			if err != nil {
				return nil, err
			}
			ins = append(ins, d)
		}
	}
	return ins, nil
}

// StageConsumers counts op's consumers inside the stage. Lazy engines use it
// to materialize an output once when several stage-local operators read it.
func StageConsumers(stage *core.Stage, op *core.Operator) int {
	n := 0
	for _, consumer := range op.Outputs() {
		if stage.Contains(consumer) {
			n++
		}
	}
	return n
}

func broadcastCtx(op *core.Operator, in *core.Inputs) (core.BroadcastCtx, error) {
	if len(op.Broadcasts()) == 0 {
		return nil, nil
	}
	bc := core.BroadcastCtx{}
	for _, producer := range op.Broadcasts() {
		ch := in.Broadcast[op][producer]
		if ch == nil {
			return nil, fmt.Errorf("driverutil: %s broadcast from %s has no channel", op, producer)
		}
		if err := ch.Consume(); err != nil {
			return nil, err
		}
		data, err := ChannelSlice(ch)
		if err != nil {
			return nil, fmt.Errorf("driverutil: broadcast %s -> %s: %w", producer, op, err)
		}
		bc[producer.Label] = data
	}
	return bc, nil
}

func reattributeLazyTime(stats *core.StageStats) {
	var total time.Duration
	var cards int64
	for _, os := range stats.Ops {
		total += os.Runtime
		cards += os.OutCard
	}
	if total > stats.Runtime {
		return // eager engine: per-op times are already real
	}
	rest := stats.Runtime - total
	if cards == 0 || rest <= 0 {
		return
	}
	for op, os := range stats.Ops {
		os.Runtime += time.Duration(float64(rest) * float64(os.OutCard) / float64(cards))
		stats.Ops[op] = os
	}
}
