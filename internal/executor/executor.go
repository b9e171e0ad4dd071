package executor

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/simclock"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// CheckpointFn is the progressive optimizer's hook. After each execution
// wave the executor pauses at the optimization checkpoint and calls it with
// the run record so far and the already-executed operators; a non-nil
// returned plan is the whole plan from then on. It must keep every executed
// operator as it ran (optimizer.Options.Resume); the executor stages and
// runs only what has not run yet.
// ctx carries the current trace span, so a re-optimization annotates the
// executing job's span tree with its replan span.
type CheckpointFn func(ctx context.Context, record []*core.StageStats, executed map[*core.Operator]bool) (*core.ExecPlan, error)

// Executor runs execution plans over the registered platform drivers.
type Executor struct {
	Registry *core.Registry
	// Checkpoint, when set, is invoked at every optimization checkpoint.
	Checkpoint CheckpointFn
	// Sniffers attach exploratory-mode observers to operator outputs.
	Sniffers map[*core.Operator]func(any)
	// Metrics records stage counts and per-platform stage time; nil skips
	// instrumentation.
	Metrics *telemetry.Registry
	// Cache, when set, receives the materialized outputs the execution
	// plan's CacheOuts marks as worth keeping for future jobs.
	Cache ResultCache
	// Remote, when set, is offered every top-level driver stage before it
	// runs locally (distributed stage execution). A declined or failed
	// offer falls back to the local path below — remote execution is an
	// optimization, never a correctness dependency.
	Remote RemoteStageRunner
}

// RemoteFetchFn materializes the output of an operator produced outside
// the offered stage, in collection form, for shipping: the quanta plus the
// channel's cardinality (-1 when unknown).
type RemoteFetchFn func(producer *core.Operator) ([]any, int64, error)

// RemoteStageRunner is the distributed-execution seam (implemented by
// distexec.Scheduler). RunStage either executes the stage on a fleet peer
// and returns its terminal outputs (ok=true) or declines (ok=false), in
// which case the executor runs the stage locally. The stage's inputs and
// outputs travel in the dispatch round trip itself, so a run leaves no
// state on any peer to clean up.
type RemoteStageRunner interface {
	RunStage(ctx context.Context, s *core.Stage, fetch RemoteFetchFn, sp *trace.Span) (map[*core.Operator]*core.Channel, *core.StageStats, bool, error)
}

// ResultCache is the cross-job result cache's population interface
// (implemented by rescache.Cache). StoreResult reports the entry's
// estimated bytes and whether it was admitted; ctx bounds a fleet
// write-through.
type ResultCache interface {
	StoreResult(ctx context.Context, co *core.CacheOut, quanta []any) (int64, bool)
}

// Record is the run record: what one run did, stage by stage. run is its only
// writer; the checkpoint's health check, the job status's monitor summary,
// the profile, the stage and operator spans, the stage counters and the cost
// learner's logs are all readings of it.
type Record struct {
	// Plan is the execution plan as finally run (after any replan).
	Plan *core.ExecPlan
	// Entries holds one entry per stage execution, in completion order:
	// top-level, loop-body (once per round, Loop and Round set) and remote
	// alike. A loop operator's own pseudo-stage runs no driver and has none.
	Entries []*core.StageStats
	// Replans counts progressive re-optimizations that occurred.
	Replans int
}

// Result is the outcome of a plan execution.
type Result struct {
	Record
	// Sinks holds one channel per sink operator.
	Sinks map[*core.Operator]*core.Channel
	// LoopOut carries the loop-output channel when the executed plan was a
	// loop body.
	LoopOut *core.Channel
}

// SinkData materializes the quanta of the (sole or given) sink.
func (r *Result) SinkData(op *core.Operator) ([]any, error) {
	ch := r.Sinks[op]
	if ch == nil {
		return nil, fmt.Errorf("executor: no output for %s", op)
	}
	return driverutil.ChannelQuanta(ch)
}

// FirstSinkData returns the data of the only sink, a convenience for
// single-sink plans.
func (r *Result) FirstSinkData() ([]any, error) {
	if len(r.Sinks) != 1 {
		return nil, fmt.Errorf("executor: plan has %d sinks", len(r.Sinks))
	}
	for op := range r.Sinks {
		return r.SinkData(op)
	}
	return nil, nil
}

// Run executes the plan to completion.
func (ex *Executor) Run(ep *core.ExecPlan) (*Result, error) {
	return ex.RunCtx(context.Background(), ep)
}

// RunCtx executes the plan, honoring ctx at every stage boundary: once a
// dispatched wave of stages completes, a cancelled or expired context
// aborts the remainder of the plan. Stage terminals are materialized
// at-rest channels, so aborting between waves leaves no platform state to
// unwind. The run's stages, loop rounds included, charge their simulated
// latencies on one clock of the run's own.
func (ex *Executor) RunCtx(ctx context.Context, ep *core.ExecPlan) (*Result, error) {
	ex.registerMetricsHelp()
	return ex.run(ctx, ep, bodyRun{clock: new(simclock.Clock)})
}

// registerMetricsHelp documents the executor's metric families; the
// metrics-lint gate requires every rheem_* family to carry help text.
func (ex *Executor) registerMetricsHelp() {
	ex.Metrics.Help("rheem_executor_stages_total", "Stages executed, by platform.")
	ex.Metrics.Help("rheem_executor_stage_seconds_total", "Cumulative stage wall time in seconds, by platform.")
	ex.Metrics.Help("rheem_fused_chains_total", "Narrow-operator chains executed as fused single-pass kernels, by platform.")
	ex.Metrics.Help("rheem_columnar_chains_total", "Fused chains whose leading steps compiled to vectorized column loops, by platform.")
	ex.Metrics.Help("rheem_columnar_batches_total", "Partition batches executed column-wise by vectorized kernels, by platform.")
	ex.Metrics.Help("rheem_columnar_rows_total", "Rows processed through the vectorized column path, by platform.")
	ex.Metrics.Help("rheem_columnar_fallbacks_total", "Partition batches that fell back from the column path to the row kernel, by platform.")
	ex.Metrics.Help("rheem_columnar_agg_batches_total", "Batches absorbed whole by the vectorized grouped-aggregation kernel, by platform.")
	ex.Metrics.Help("rheem_columnar_agg_rows_total", "Surviving rows the vectorized grouped-aggregation kernel absorbed column-wise, by platform.")
	ex.Metrics.Help("rheem_columnar_dict_columns_total", "Dictionary-encoded string columns built by the columnar plane (process-wide).")
}

// bodyRun is what one round of a loop body runs with, besides the body's
// plan; with only clock set, it is a top-level run.
type bodyRun struct {
	// clock is the top-level run's, handed to every stage it runs.
	clock   *simclock.Clock
	loop    *core.Operator
	round   core.Round
	loopVar []any
	// refs holds the channel each outer-reference placeholder of the body reads.
	refs map[*core.Operator]*core.Channel
	// earlier are the record entries of the loop's earlier rounds; this round's
	// record continues them, so a loop hands all its rounds upward as one list.
	earlier []*core.StageStats
}

// run executes ep and writes the run record: every entry is appended here and
// nowhere else.
func (ex *Executor) run(ctx context.Context, ep *core.ExecPlan, body bodyRun) (*Result, error) {
	executedOps := map[*core.Operator]bool{}
	stages, err := BuildStages(ep, executedOps)
	if err != nil {
		return nil, err
	}
	deps := stageDeps(ep, stages)

	res := &Result{Sinks: map[*core.Operator]*core.Channel{}, Record: Record{Entries: body.earlier}}
	chans := newChannelStore()
	done := map[*core.Stage]bool{}

	// parent is the trace span this execution annotates (nil when tracing
	// is off; every emission below is nil-guarded so the disabled path
	// stays allocation-free).
	parent := trace.FromContext(ctx)
	waveNo := 0

	for len(done) < len(stages) {
		// Stage boundary: the previous wave's outputs are at rest, so this
		// is the safe point to abandon a cancelled execution.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("executor: aborted at stage boundary: %w", err)
		}
		var wave []*core.Stage
		for _, s := range stages {
			if done[s] {
				continue
			}
			ready := true
			for d := range deps[s] {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, s)
			}
		}
		if len(wave) == 0 {
			return nil, fmt.Errorf("executor: stage dependency deadlock (%d of %d done)", len(done), len(stages))
		}

		// Dispatch the wave's stages in parallel (inter-platform
		// parallelism); loop pseudo-stages run in the executor itself.
		var waveSp *trace.Span
		if parent != nil {
			waveSp = parent.Start(trace.KindWave, "wave-"+strconv.Itoa(waveNo))
			waveSp.SetInt("stages", int64(len(wave)))
		}
		waveNo++
		type outcome struct {
			stage  *core.Stage
			outs   map[*core.Operator]*core.Channel
			stats  *core.StageStats   // a driver stage's entry
			rounds []*core.StageStats // a loop's: its body's entries, every round
			err    error
		}
		outcomes := make([]outcome, len(wave))
		usageBefore := SampleUsage()
		var wg sync.WaitGroup
		for i, s := range wave {
			wg.Add(1)
			go func(i int, s *core.Stage) {
				defer wg.Done()
				var stSp *trace.Span
				if waveSp != nil {
					stSp = waveSp.Start(trace.KindStage, s.String())
					if s.Platform != "" { // a loop's pseudo-stage runs on none
						stSp.SetAttr("platform", s.Platform)
					}
				}
				defer stSp.End()
				// Last-resort guard: a panic escaping a driver (e.g. a UDF
				// in a loop condition) fails the stage, not the process.
				defer func() {
					if r := recover(); r != nil {
						outcomes[i] = outcome{stage: s, err: fmt.Errorf("executor: %s: panic: %v", s, r)}
					}
				}()
				if s.Platform == "" {
					outs, rounds, err := ex.runLoopStage(trace.NewContext(ctx, stSp), ep, s, chans, body.clock)
					outcomes[i] = outcome{stage: s, outs: outs, rounds: rounds, err: err}
					return
				}
				var outs map[*core.Operator]*core.Channel
				var stats *core.StageStats
				var err error
				// Distributed execution: offer top-level stages to the
				// remote scheduler first. Loop-body stages stay local —
				// their placeholders bind process-local channels. Any
				// decline or remote failure falls through to the local
				// run below.
				ran := false
				if ex.Remote != nil && body.loop == nil {
					if ex.Sniffers != nil {
						s.Sniffers = ex.Sniffers // let the scheduler see (and refuse) sniffed ops
					}
					// A remote stage is shipped quanta, not a priced conversion:
					// whatever channel the producer left is read out as it is.
					fetch := func(producer *core.Operator) ([]any, int64, error) {
						ch, err := chans.fetch(ep, producer, []string{ep.OutChannel(producer)}, stSp)
						if err != nil {
							return nil, 0, err
						}
						data, err := driverutil.ChannelQuanta(ch)
						if err != nil {
							return nil, 0, err
						}
						return data, ch.Card, nil
					}
					if rOuts, rStats, ok, rErr := ex.Remote.RunStage(ctx, s, fetch, stSp); ok && rErr == nil {
						outs, stats, ran = rOuts, rStats, true
					}
				}
				if !ran {
					if err = ctx.Err(); err == nil {
						outs, stats, err = ex.runDriverStage(ep, s, chans, body, stSp)
					}
				}
				if stats != nil {
					stats.Loop, stats.Round = body.loop, body.round.N
					if stSp != nil {
						annotateStageSpan(stSp, stats)
					}
				}
				if err != nil {
					stSp.SetAttr("error", err.Error())
				}
				outcomes[i] = outcome{stage: s, outs: outs, stats: stats, err: err}
			}(i, s)
		}
		wg.Wait()
		waveSp.End()

		// Attribute the wave's process-level CPU/alloc/codec deltas to its
		// stages (proportional to stage wall time; see resources.go).
		// Remotely-executed stages are excluded: they carry the executing
		// peer's own measurements, which local attribution must not
		// overwrite.
		var waveStats []*core.StageStats
		for _, oc := range outcomes {
			if oc.stats != nil && oc.stats.Remote == "" {
				waveStats = append(waveStats, oc.stats)
			}
		}
		attributeUsage(usageBefore, SampleUsage(), waveStats)

		for _, oc := range outcomes {
			if oc.err != nil {
				return nil, oc.err
			}
			done[oc.stage] = true
			for _, op := range oc.stage.Ops {
				executedOps[op] = true
			}
			for op, ch := range oc.outs {
				chans.put(op, ch)
				if op.Kind.IsSink() {
					res.Sinks[op] = ch
				}
				if ex.Cache != nil {
					if co := ep.CacheOuts[op]; co != nil {
						ex.storeCacheOut(ctx, parent, op, co, ch)
					}
				}
			}
			if oc.stats != nil {
				ex.countStage(oc.stats)
				res.Entries = append(res.Entries, oc.stats)
			}
			res.Entries = append(res.Entries, oc.rounds...)
		}

		// Optimization checkpoint: the data produced so far is at rest
		// (stage terminals are materialized); give the progressive
		// optimizer a chance to re-plan the remainder. A loop body's rounds
		// have none: the hook re-plans the top-level plan, which holds none of
		// a body's operators.
		if ex.Checkpoint != nil && body.loop == nil && len(done) < len(stages) {
			newEP, err := ex.Checkpoint(ctx, res.Entries, executedOps)
			if err != nil {
				return nil, fmt.Errorf("executor: progressive re-optimization: %w", err)
			}
			if newEP != nil {
				// The replan is the plan: it kept what ran as it ran, so only
				// the remainder is staged, reading executed producers from the
				// channel store.
				ep = newEP
				if stages, err = BuildStages(ep, executedOps); err != nil {
					return nil, err
				}
				deps, done = stageDeps(ep, stages), map[*core.Stage]bool{}
				res.Replans++
			}
		}
	}
	if ep.Plan.LoopOutput != nil {
		ch, err := chans.fetch(ep, ep.Plan.LoopOutput, []string{"collection"}, parent)
		if err != nil {
			return nil, fmt.Errorf("executor: loop output: %w", err)
		}
		res.LoopOut = ch
	}
	res.Plan = ep
	return res, nil
}

// countStage adds one record entry to the stage, fused-chain and columnar
// counter families.
func (ex *Executor) countStage(st *core.StageStats) {
	pl := telemetry.L("platform", st.Stage.Platform)
	ex.Metrics.Counter("rheem_executor_stages_total", pl).Inc()
	ex.Metrics.Counter("rheem_executor_stage_seconds_total", pl).Add(st.Runtime.Seconds())
	if n := len(st.FusedChains); n > 0 {
		ex.Metrics.Counter("rheem_fused_chains_total", pl).Add(float64(n))
	}
	if n := len(st.Vectorized); n > 0 {
		ex.Metrics.Counter("rheem_columnar_chains_total", pl).Add(float64(n))
		var batches, rows, fallbacks, aggBatches, aggRows int64
		for _, v := range st.Vectorized {
			batches += v.Batches
			rows += v.Rows
			fallbacks += v.Fallbacks
			aggBatches += v.AggBatches
			aggRows += v.AggRows
		}
		ex.Metrics.Counter("rheem_columnar_batches_total", pl).Add(float64(batches))
		ex.Metrics.Counter("rheem_columnar_rows_total", pl).Add(float64(rows))
		ex.Metrics.Counter("rheem_columnar_fallbacks_total", pl).Add(float64(fallbacks))
		if aggBatches > 0 || aggRows > 0 {
			ex.Metrics.Counter("rheem_columnar_agg_batches_total", pl).Add(float64(aggBatches))
			ex.Metrics.Counter("rheem_columnar_agg_rows_total", pl).Add(float64(aggRows))
		}
	}
	// Dictionary columns are built by a process-wide codec path (decode and
	// batch construction) and belong to no stage: the family takes whatever
	// the process built since it was last fed.
	if built := core.TakeDictColumns(); built > 0 {
		ex.Metrics.Counter("rheem_columnar_dict_columns_total").Add(float64(built))
	}
}

// annotateStageSpan renders one record entry onto its stage's span: the
// measured stage runtime, one span per fused chain, and one attributed child
// span per operator carrying the estimated vs. observed cardinality and their
// mismatch factor. Operator runtimes are attributed shares, laid out
// sequentially ending at the stage's completion instant (attribution, not
// measurement).
func annotateStageSpan(stSp *trace.Span, st *core.StageStats) {
	platform := st.Stage.Platform
	stSp.SetFloat("runtime_ms", float64(st.Runtime)/float64(time.Millisecond))
	// One span per fused chain, carrying the single-pass kernel's op list
	// and, when the chain's leading steps vectorized, the columnar-batch
	// execution counters.
	for _, chain := range st.FusedChains {
		names := make([]string, len(chain))
		for i, op := range chain {
			names[i] = op.String()
		}
		fuSp := stSp.Start(trace.KindFusedPipeline, "fused:"+strconv.Itoa(len(chain))+"-ops")
		fuSp.SetAttr("platform", platform)
		fuSp.SetAttr("ops", strings.Join(names, " → "))
		fuSp.SetInt("chain_len", int64(len(chain)))
		for _, v := range st.Vectorized {
			if len(chain) == 0 || len(v.Ops) == 0 || v.Ops[0] != chain[0] {
				continue
			}
			fuSp.SetAttr("columnar-batch", "true")
			fuSp.SetInt("vectorized_steps", int64(v.VecSteps))
			fuSp.SetInt("columnar_batches", v.Batches)
			fuSp.SetInt("columnar_rows", v.Rows)
			fuSp.SetInt("columnar_fallbacks", v.Fallbacks)
			if v.AggBatches > 0 || v.AggRows > 0 {
				fuSp.SetInt("columnar_agg_batches", v.AggBatches)
				fuSp.SetInt("columnar_agg_rows", v.AggRows)
			}
			break
		}
		fuSp.End()
	}
	var total time.Duration
	for _, os := range st.Ops {
		total += os.Runtime
	}
	cur := time.Now().Add(-total)
	st.Observations(func(o core.Observation) {
		if !o.Observed {
			return
		}
		opSp := stSp.AddTimed(trace.KindOperator, o.Op.String(), cur, cur.Add(o.Runtime))
		cur = cur.Add(o.Runtime)
		opSp.SetAttr("platform", platform)
		opSp.SetInt("observed_card", o.OutCard)
		if o.Assigned != nil {
			opSp.SetAttr("estimated_card", o.Assigned.OutCard.String())
			opSp.SetFloat("mismatch_factor", o.Assigned.OutCard.MismatchFactor(o.OutCard))
			opSp.SetAttr("cost_est", o.Assigned.CostEst.String())
		}
	})
}

// storeCacheOut publishes one marked, already-materialized stage output to
// the cross-job result cache, recording a cache-store span under sp.
func (ex *Executor) storeCacheOut(ctx context.Context, sp *trace.Span, op *core.Operator, co *core.CacheOut, ch *core.Channel) {
	quanta, err := driverutil.ChannelQuanta(ch)
	if err != nil {
		return // platform-native payloads that cannot be materialized are not cacheable
	}
	stSp := sp.Start(trace.KindCacheStore, "cache-store:"+shortFingerprint(co.Fingerprint))
	bytes, ok := ex.Cache.StoreResult(ctx, co, quanta)
	stSp.SetAttr("fingerprint", co.Fingerprint)
	stSp.SetAttr("operator", op.String())
	stSp.SetInt("quanta", int64(len(quanta)))
	stSp.SetInt("bytes", bytes)
	stSp.SetFloat("cost_ms", co.CostMs)
	if !ok {
		stSp.SetAttr("rejected", "true")
	}
	stSp.End()
}

func shortFingerprint(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// runDriverStage prepares a stage's inputs (converting channels as needed,
// emitting channel-conversion spans under sp) and hands it to its platform
// driver.
func (ex *Executor) runDriverStage(ep *core.ExecPlan, s *core.Stage, chans *channelStore, body bodyRun, sp *trace.Span) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	driver, err := ex.Registry.Driver(s.Platform)
	if err != nil {
		return nil, nil, err
	}
	in := core.NewInputs()
	in.Round, in.Clock = body.round, body.clock
	// inQuanta totals the quanta read from the stage's input channels (for
	// resource profiles); channels of unknown cardinality contribute 0.
	var inQuanta int64
	countIn := func(ch *core.Channel) {
		if ch != nil && ch.Card > 0 {
			inQuanta += ch.Card
		}
	}
	// The loop-carried value binds exclusively to the designated LoopInput
	// placeholder, never to other collection sources.
	if body.loopVar != nil && ep.Plan.LoopInput != nil && s.Contains(ep.Plan.LoopInput) {
		ch := driverutil.CollectionOf(body.loopVar)
		countIn(ch)
		in.SetMain(ep.Plan.LoopInput, 0, ch)
	}
	for op, producers := range s.ExternalIn {
		for port, producer := range op.Inputs() {
			if !slices.Contains(producers, producer) {
				continue
			}
			ch, err := chans.fetch(ep, producer, ep.InChannels(op), sp)
			if err != nil {
				return nil, nil, fmt.Errorf("executor: feeding %s: %w", op, err)
			}
			countIn(ch)
			in.SetMain(op, port, ch)
		}
	}
	for op, producers := range s.ExternalBroadcast {
		for _, producer := range producers {
			ch, err := chans.fetch(ep, producer, []string{"collection"}, sp)
			if err != nil {
				return nil, nil, fmt.Errorf("executor: broadcast to %s: %w", op, err)
			}
			countIn(ch)
			in.SetBroadcast(op, producer, ch)
		}
	}
	// Loop-body placeholders referencing outer operators.
	for _, op := range s.Ops {
		if op.OuterRef != nil {
			ch := body.refs[op]
			if ch == nil {
				return nil, nil, fmt.Errorf("executor: %s references %s, which was not materialized", op, op.OuterRef)
			}
			in.SetMain(op, 0, ch)
		}
	}
	if ex.Sniffers != nil {
		s.Sniffers = ex.Sniffers
	}
	outs, stats, err := driver.Execute(s, in)
	if stats != nil {
		stats.InQuanta = inQuanta
	}
	return outs, stats, err
}

// runLoopStage evaluates a loop operator: materialize the loop input,
// iterate the optimized body plan, and publish the final value together with
// the record entries of every round's body stages.
func (ex *Executor) runLoopStage(ctx context.Context, ep *core.ExecPlan, s *core.Stage, chans *channelStore, clock *simclock.Clock) (map[*core.Operator]*core.Channel, []*core.StageStats, error) {
	loop := s.Ops[0]
	body := ep.LoopBodies[loop]
	if body == nil {
		return nil, nil, fmt.Errorf("executor: loop %s has no optimized body", loop)
	}
	sp := trace.FromContext(ctx)
	// Loop-carried value from the loop's input port.
	var loopVar []any
	if len(loop.Inputs()) > 0 {
		ch, err := chans.fetch(ep, loop.Inputs()[0], []string{"collection"}, sp)
		if err != nil {
			return nil, nil, fmt.Errorf("executor: loop %s input: %w", loop, err)
		}
		loopVar, err = driverutil.ChannelQuanta(ch)
		if err != nil {
			return nil, nil, err
		}
	}
	// Outer references: each placeholder of the body gets the referenced
	// operator's output in the form it was placed to read, moved once, before
	// the first iteration ("data at rest" per Figure 7's Cache).
	refs := map[*core.Operator]*core.Channel{}
	for _, ref := range loop.OuterRefs() {
		ch, err := chans.fetch(ep, ref.OuterRef, body.InChannels(ref), sp)
		if err != nil {
			return nil, nil, fmt.Errorf("executor: loop %s outer ref %s: %w", loop, ref.OuterRef, err)
		}
		refs[ref] = ch
	}

	iters := loop.Params.Iterations
	maxIters := iters
	if loop.Kind == core.KindDoWhile {
		maxIters = loop.Params.MaxIterations
		if maxIters <= 0 {
			maxIters = 1 << 20
		}
	}
	// The loop run's state lives as long as this call: every round's stages
	// share it, and it is dropped when the loop returns.
	run := new(core.LoopRun)
	var rounds []*core.StageStats
	for roundNo := 0; ; roundNo++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("executor: loop %s aborted at round %d: %w", loop, roundNo, err)
		}
		if loop.Kind == core.KindRepeat && roundNo >= iters {
			break
		}
		if roundNo >= maxIters {
			break
		}
		if loop.Kind == core.KindDoWhile && loop.UDF.Cond != nil && !loop.UDF.Cond(roundNo, loopVar) {
			break
		}
		roundCtx := ctx
		var roundSp *trace.Span
		if sp != nil {
			roundSp = sp.Start(trace.KindLoop, "round-"+strconv.Itoa(roundNo))
			roundSp.SetInt("loop_var_card", int64(len(loopVar)))
			roundCtx = trace.NewContext(ctx, roundSp)
		}
		sub, err := ex.run(roundCtx, body, bodyRun{clock: clock, loop: loop, round: core.Round{N: roundNo, Run: run}, loopVar: loopVar, refs: refs, earlier: rounds})
		if err != nil {
			roundSp.SetAttr("error", err.Error())
			roundSp.End()
			return nil, nil, fmt.Errorf("executor: loop %s round %d: %w", loop, roundNo, err)
		}
		roundSp.End()
		rounds = sub.Entries
		if sub.LoopOut == nil {
			return nil, nil, fmt.Errorf("executor: loop %s body produced no output", loop)
		}
		loopVar, err = driverutil.ChannelQuanta(sub.LoopOut)
		if err != nil {
			return nil, nil, err
		}
	}
	out := driverutil.CollectionOf(loopVar)
	return map[*core.Operator]*core.Channel{loop: out}, rounds, nil
}

// channelStore tracks produced channels per operator, in all channel forms
// made so far. It plans nothing: a form that is not there yet is made by
// running the producer's movement tree as the optimizer planned it.
type channelStore struct {
	mu   sync.Mutex
	byOp map[*core.Operator]map[string]*core.Channel
}

func newChannelStore() *channelStore {
	return &channelStore{byOp: map[*core.Operator]map[string]*core.Channel{}}
}

func (cs *channelStore) put(op *core.Operator, ch *core.Channel) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.byOp[op]
	if m == nil {
		m = map[string]*core.Channel{}
		cs.byOp[op] = m
	}
	m[ch.Desc.Name] = ch
}

// fetch returns producer's output as one of the acceptable channel types. A
// form not made yet comes from ep's movement tree for the producer: its edges
// run in plan order, each at most once however many readers share it, up to
// the first acceptable form, each as a channel-conversion span under sp. A
// tree that does not start at a channel the producer's stage actually left,
// or makes no acceptable form, is a broken plan: reported, never searched
// around.
func (cs *channelStore) fetch(ep *core.ExecPlan, producer *core.Operator, acceptable []string, sp *trace.Span) (*core.Channel, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	m := cs.byOp[producer]
	for _, want := range acceptable {
		if ch, ok := m[want]; ok {
			return ch, nil
		}
	}
	var edges []*core.Conversion
	if mv := ep.Movements[producer]; mv != nil && m[mv.Tree.Root] != nil {
		edges = mv.Tree.Edges
	}
	for _, step := range edges {
		cur := m[step.From]
		if cur == nil || m[step.To] != nil {
			continue
		}
		var convSp *trace.Span
		if sp != nil {
			convSp = sp.Start(trace.KindConversion, step.Name)
			convSp.SetAttr("from", cur.Desc.Name)
		}
		next, err := step.Convert(cur)
		if err != nil {
			convSp.SetAttr("error", err.Error())
			convSp.End()
			return nil, fmt.Errorf("conversion %s: %w", step.Name, err)
		}
		if next.Card < 0 {
			next.Card = cur.Card
		}
		if convSp != nil {
			convSp.SetAttr("to", next.Desc.Name)
			convSp.SetInt("card", next.Card)
			convSp.End()
		}
		m[next.Desc.Name] = next
		if slices.Contains(acceptable, next.Desc.Name) {
			return next, nil
		}
	}
	var have []string
	for name := range m {
		have = append(have, name)
	}
	return nil, fmt.Errorf("%s was produced as %v and is wanted as %v, which the plan's movement for it does not provide", producer, have, acceptable)
}
