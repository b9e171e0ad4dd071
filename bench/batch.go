package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/tasks"
	"rheem/internal/trace"
)

// options fix one run of one workload.
type options struct {
	seed    int64
	seconds float64 // length of the measured window
	// scale multiplies every input size. Recorded runs use 1; the smoke
	// test uses a small value so all five workloads fit in seconds.
	scale   float64
	workDir string
	setups  int // set-ups per untraced run; setup_s is their median
}

// passResult is what one pass over one workload produced.
type passResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for diagnosis
	Platforms []string           `json:"platforms"`          // the optimizer's free choice
	Sizes     map[string]int     `json:"sizes"`
	WallS     float64            `json:"wall_s"`
	// QuietBlocks is how many of the window's blocks the time-based
	// end-to-end metrics are medians over, and BlockS a block's length in
	// seconds (see quietBlocks).
	QuietBlocks int     `json:"quiet_blocks,omitempty"`
	BlockS      float64 `json:"block_s,omitempty"`
}

func (p *passResult) fail(err error) {
	p.Failed++
	if len(p.Failures) < 5 {
		p.Failures = append(p.Failures, err.Error())
	}
}

const warmupJobs = 5

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// loaded is one set-up of a batch workload.
type loaded struct {
	ctx    *rheem.Context
	inst   *batchInstance
	dir    string
	setupS float64
}

// setUp generates and loads the inputs, boots a context and runs the warm-up
// jobs (engine context start-up, pools, page cache), all charged to setup_s.
func setUp(w batchWorkload, o options, rep int) (*loaded, error) {
	dir, err := freshDir(o.workDir, w.name, rep)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cfg := w.cfg
	cfg.DFSDir = filepath.Join(dir, "dfs")
	ctx, err := rheem.NewContext(cfg)
	if err != nil {
		return nil, err
	}
	inst, err := w.load(ctx, dir, o.seed, o.scale)
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", w.name, err)
	}
	l := &loaded{ctx: ctx, inst: inst, dir: dir}
	for i := 0; i < warmupJobs; i++ {
		if _, _, err := l.runJob(ctx, -1-i, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up job: %w", w.name, err)
		}
	}
	l.setupS = time.Since(t0).Seconds() - inst.oracleS
	return l, nil
}

func (l *loaded) tearDown() error { return os.RemoveAll(l.dir) }

// runJob runs job n the way a library caller does — plan built, Execute,
// output fetched — and returns that time and the result. prepare, when set,
// edits the built plan before it is handed over (pinning). The output is
// checked against the oracle after the clock stops.
func (l *loaded) runJob(ctx *rheem.Context, n int, prepare func(*core.Plan)) (float64, *rheem.Result, error) {
	t0 := time.Now()
	plan, fetch, err := l.inst.newJob(ctx, n)
	if err != nil {
		return 0, nil, err
	}
	if prepare != nil {
		prepare(plan)
	}
	res, err := ctx.Execute(plan)
	if err != nil {
		return 0, nil, err
	}
	out, err := fetch(res)
	if err != nil {
		return 0, nil, err
	}
	s := time.Since(t0).Seconds()
	if err := l.inst.check(out); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errWrongOutput, err)
	}
	return s, res, nil
}

// errWrongOutput marks a job that ran but disagreed with the oracle.
var errWrongOutput = errors.New("wrong output")

// untracedBatch produces the end-to-end metrics: harness spans and the
// program's tracer are off, one closed-loop client.
func untracedBatch(w batchWorkload, o options) (*passResult, error) {
	start := time.Now()
	l, err := setUp(w, o, 0)
	if err != nil {
		return nil, err
	}
	setups := []float64{l.setupS}

	res := &passResult{Sizes: l.inst.sizes}
	var starts, times []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for n := 0; time.Since(t0).Seconds() < o.seconds; n++ {
		// Every job starts from the same heap; without this the p50 of
		// declarative_agg moved 10 % between two identical runs.
		runtime.GC()
		started := time.Since(t0).Seconds()
		s, r, err := l.runJob(l.ctx, n, nil)
		res.Attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		starts, times = append(starts, started), append(times, s)
		res.Platforms = r.Platforms()
	}
	runtime.ReadMemStats(&after)
	quiet, blockS := quietBlocks(starts, times, o.seconds, batchBlockS)
	res.QuietBlocks, res.BlockS = len(quiet), blockS
	if err := l.tearDown(); err != nil {
		return nil, err
	}

	// The remaining set-ups come after the window, so the measured jobs read
	// inputs laid out in a fresh heap: measured on the last of five set-ups,
	// declarative_agg's p50 was 15 % slower and twice as scattered.
	for rep := 1; rep < o.setups; rep++ {
		l, err := setUp(w, o, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, l.setupS)
		if err := l.tearDown(); err != nil {
			return nil, err
		}
	}

	res.Metrics = endToEnd(setups, quiet, 0, after.TotalAlloc-before.TotalAlloc, res.Attempted)
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// endToEnd assembles the end-to-end metrics of an untraced pass. quiet holds
// the job times of each quiet block; a time-based metric is the median over
// the blocks of the block's own value. A block's throughput is over wallS
// seconds, or over the summed job times where wallS is 0.
func endToEnd(setups []float64, quiet [][]float64, wallS float64, allocBytes uint64, attempted int) map[string]float64 {
	var p50, p90, perS []float64
	for _, ts := range quiet {
		busy := wallS
		if busy == 0 {
			busy = sum(ts)
		}
		p50 = append(p50, median(ts))
		p90 = append(p90, quantile(ts, 0.9))
		perS = append(perS, ratio(float64(len(ts)), busy))
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"job_s_p50":        median(p50),
		"job_s_p90":        median(p90),
		"jobs_per_s":       median(perS),
		"alloc_mb_per_job": ratio(float64(allocBytes)/(1<<20), float64(attempted)),
	}
}

// chainEngines are the platforms a whole plan can be pinned to.
var chainEngines = []string{"spark", "flink", "streams"}

// phase runs fn up to max times, stopping early once budget seconds are
// spent, but never before two runs.
func phase(max int, budget float64, fn func(i int) error) error {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for i := 0; i < max && (i < 2 || time.Now().Before(deadline)); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// samples collects per-job readings of named quantities.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians writes the median of every collected quantity into m.
func (s samples) medians(m map[string]float64) {
	for name, vs := range s {
		m[name] = median(vs)
	}
}

// tracedBatch produces the per-layer metrics. The budget of o.seconds is
// split over: stepped jobs under harness spans; job pairs with and without
// the program's tracer; the plan pinned to each chain engine; the plan
// without simulated latency; and the layer probes.
func tracedBatch(w batchWorkload, o options) (*passResult, error) {
	start := time.Now()
	l, err := setUp(w, o, 0)
	if err != nil {
		return nil, err
	}
	defer l.tearDown()
	res := &passResult{Sizes: l.inst.sizes, Metrics: map[string]float64{}}
	m := res.Metrics
	rec := &recorder{}
	jobNo := 0
	next := func() int { jobNo++; return jobNo }

	// Stepped jobs: the public steps of Execute called one by one.
	sm := samples{}
	stopSampler := sampleHeap(m)
	err = phase(20, o.seconds*0.25, func(int) error {
		res.Attempted++
		r, err := l.steppedJob(rec, next(), sm)
		if err != nil {
			res.fail(err)
			return nil
		}
		res.Platforms = r.Platforms()
		return nil
	})
	stopSampler()
	if err != nil {
		return nil, err
	}
	sm.medians(m)

	// Pairs: the same job with the program's tracer detached and attached.
	var plain, traced []float64
	var refPlan *core.ExecPlan
	spans := 0
	err = phase(10, o.seconds*0.2, func(int) error {
		res.Attempted += 2
		runtime.GC()
		s, r, err := l.runJob(l.ctx, next(), nil)
		if err != nil {
			res.fail(err)
			return nil
		}
		plain = append(plain, s)
		refPlan = r.Plan()
		runtime.GC()
		s, n, err := l.tracedJob(rec, next())
		if err != nil {
			res.fail(err)
			return nil
		}
		traced = append(traced, s)
		spans = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	free := median(plain)
	m["trace.overhead_share"] = ratio(median(traced)-free, free)
	m["trace.spans_per_job"] = float64(spans)

	// The whole plan on each chain engine, in rounds with a free-choice job
	// so that drift of the host lands on every side of the comparison. An
	// engine that cannot run the plan at all (a table source on spark) is
	// dropped and reads 0.
	engines := append([]string(nil), chainEngines...)
	pinned := samples{}
	err = phase(10, o.seconds*0.3, func(int) error {
		res.Attempted++
		runtime.GC()
		s, _, err := l.runJob(l.ctx, next(), nil)
		if err != nil {
			res.fail(err)
			return nil
		}
		pinned.add("free", s)
		for i := 0; i < len(engines); i++ {
			engine := engines[i]
			runtime.GC()
			s, _, err := l.runJob(l.ctx, next(), func(p *core.Plan) { tasks.PinAll(p, engine) })
			if errors.Is(err, errWrongOutput) {
				res.Attempted++
				res.fail(fmt.Errorf("pinned to %s: %w", engine, err))
			}
			if err != nil {
				engines = append(engines[:i], engines[i+1:]...)
				i--
				continue
			}
			res.Attempted++
			pinned.add(engine, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := 0.0
	for _, engine := range engines {
		p50 := median(pinned[engine])
		m["platform."+engine+".pinned_job_s"] = p50
		if best == 0 || p50 < best {
			best = p50
		}
	}
	m["optimizer.choice_regret"] = ratio(median(pinned["free"]), best)

	// Simulated latency, by difference: the chosen plan, every operator
	// pinned where the optimizer put it, in a context without the latencies.
	if !w.cfg.FastSimulation && refPlan != nil {
		cfg := w.cfg
		cfg.FastSimulation = true
		cfg.DFSDir = filepath.Join(l.dir, "dfs")
		fast, err := rheem.NewContext(cfg)
		if err != nil {
			return nil, err
		}
		var ts []float64
		err = phase(10, o.seconds*0.1, func(i int) error {
			res.Attempted++
			runtime.GC()
			s, _, err := l.runJob(fast, next(), func(p *core.Plan) { pinLike(p, refPlan) })
			if err != nil {
				res.fail(err)
				return nil
			}
			if i > 0 { // the first job boots the new context's engines
				ts = append(ts, s)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(ts) > 0 {
			m["sim.share"] = 1 - ratio(median(ts), free)
		}
	}

	if err := runProbes(l.inst.probes, l.ctx.DFS, m); err != nil {
		return nil, err
	}
	if err := rec.writeChrome(filepath.Join(o.workDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// steppedJob runs one job as build → Optimize → ExecutePlanned → fetch under
// harness spans and reads what those calls return.
func (l *loaded) steppedJob(rec *recorder, n int, sm samples) (*rheem.Result, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	codec0 := core.CodecBytesMoved()

	job := rec.begin("job", n, -1)
	sp := rec.begin("build", n, job)
	plan, fetch, err := l.inst.newJob(l.ctx, n)
	build := rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("optimize", n, job)
	ep, err := l.ctx.Optimize(plan)
	optimize := rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("execute", n, job)
	res, err := l.ctx.ExecutePlanned(plan, ep)
	run := rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("collect", n, job)
	out, err := fetch(res)
	collect := rec.end(sp)
	rec.end(job)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if err := l.inst.check(out); err != nil {
		return nil, err
	}

	sm.add("rheem.plan_build_s", build)
	sm.add("optimizer.optimize_s", optimize)
	sm.add("executor.run_s", run)
	sm.add("rheem.collect_s", collect)
	sm.add("optimizer.plan_operators", float64(tasks.OperatorCount(plan)))
	sm.add("optimizer.platform_count", float64(len(res.Platforms())))
	sm.add("core.codec_bytes_moved_per_job", float64(core.CodecBytesMoved()-codec0))
	sm.add("runtime.gc_cycles_per_job", float64(after.NumGC-before.NumGC))
	sm.add("runtime.gc_pause_s_per_job", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
	addProfile(sm, res.Profile(), run)
	return res, nil
}

// addProfile records what Result.Profile reports about one executed job.
// run is the harness's own time around the execute call.
func addProfile(sm samples, prof *rheem.Profile, run float64) {
	stageWall := prof.WallMs / 1e3
	sm.add("optimizer.est_cost_ms", prof.PlanCostMs)
	sm.add("executor.stages", float64(len(prof.Stages)))
	sm.add("executor.stage_wall_s", stageWall)
	// Stages of one wave run side by side, so their summed wall time can
	// exceed the run; self time is then 0, not negative.
	sm.add("executor.self_s", max(0, run-stageWall))
	sm.add("executor.replans", float64(prof.Replans))
	sm.add("executor.cost_mismatch", prof.MismatchFactor)
	sm.add("executor.quanta_in", float64(prof.QuantaIn))
	sm.add("executor.quanta_out", float64(prof.QuantaOut))
	sm.add("executor.bytes_moved", float64(prof.BytesMoved))
	stageS, stages := map[string]float64{}, map[string]float64{}
	for _, st := range prof.Stages {
		stageS[st.Platform] += st.WallMs / 1e3
		stages[st.Platform]++
	}
	for _, e := range rheem.AllPlatforms() {
		sm.add("platform."+e+".stage_s", stageS[e])
		sm.add("platform."+e+".stages", stages[e])
	}
}

// tracedJob is runJob with the program's own tracer attached to the job
// context, as the job service attaches it. It returns the span count too.
func (l *loaded) tracedJob(rec *recorder, n int) (float64, int, error) {
	job := rec.begin("traced-job", n, -1)
	plan, fetch, err := l.inst.newJob(l.ctx, n)
	if err != nil {
		return 0, 0, err
	}
	tr := trace.New(trace.KindJob, "job:"+plan.Name)
	tr.Metrics = l.ctx.Metrics
	res, err := l.ctx.ExecuteCtx(trace.NewContext(context.Background(), tr.Root()), plan)
	if err != nil {
		return 0, 0, err
	}
	tr.Root().End()
	out, err := fetch(res)
	if err != nil {
		return 0, 0, err
	}
	s := rec.end(job)
	return s, countSpans(tr.Snapshot()), l.inst.check(out)
}

func countSpans(s *trace.SpanJSON) int {
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}

// pinLike pins every operator of p to the platform ref assigned to the
// operator at the same position. Both plans come from the same builder, so
// positions correspond.
func pinLike(p *core.Plan, ref *core.ExecPlan) {
	refOps := ref.Plan.Operators()
	for i, op := range p.Operators() {
		if op.Kind.IsLoop() {
			pinLike(op.Body, ref.LoopBodies[refOps[i]])
			continue
		}
		op.TargetPlatform = ref.PlatformOf(refOps[i])
	}
}

// sampleHeap samples the heap in use every 10 ms until the returned stop
// function is called, then writes the peak into m.
func sampleHeap(m map[string]float64) (stop func()) {
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64() + sample[1].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		m["runtime.heap_inuse_peak_mb"] = float64(peak) / (1 << 20)
	}
}
