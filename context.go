// Package rheem is a cross-platform data processing system in Go: a
// reproduction of RHEEM (PVLDB 11(11), 2018; the system behind the ICDE'18
// tutorial "Cross-Platform Data Processing: Use Cases and Challenges", later
// Apache Wayang). Applications compose platform-agnostic dataflow plans
// through the fluent DataQuanta API (or the RheemLatin language in package
// latin); a cost-based optimizer picks the best platform — or combination of
// platforms — for every operator, plans cross-platform data movement over a
// channel conversion graph, and an executor orchestrates the chosen
// platforms, progressively re-optimizing when cardinality estimates prove
// wrong.
//
// The bundled platforms are in-process miniature engines of the archetypes
// the paper targets: a single-threaded iterator engine (JavaStreams), a
// partitioned bulk-synchronous engine (Spark), a pipelined parallel
// dataflow engine (Flink), an embedded relational store (Postgres), a BSP
// vertex-centric graph engine (Giraph), a compact in-memory graph library
// (JGraph), and a block-replicated distributed file system (HDFS).
package rheem

import (
	"context"
	"fmt"

	"rheem/internal/core"
	"rheem/internal/costlearn"
	"rheem/internal/executor"
	"rheem/internal/optimizer"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/pregel"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/progressive"
	"rheem/internal/rescache"
	"rheem/internal/storage/dfs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// Config configures a Context.
type Config struct {
	// DFSDir is the directory backing the DFS store; a temporary directory
	// is created when empty.
	DFSDir string
	// DFSOptions tune the DFS (block size, replication, throttling).
	DFSOptions dfs.Options
	// Platforms enables a subset of platforms; nil enables all.
	Platforms []string
	// CostTablePath loads a learned cost table; empty uses the calibrated
	// defaults.
	CostTablePath string
	// Metrics receives executor/optimizer telemetry; nil creates a private
	// registry (exposed as Context.Metrics).
	Metrics *telemetry.Registry

	// ResultCache, when set, enables the cross-job intermediate-result
	// cache: executions probe it for previously computed subplan results
	// and publish cache-worthy stage outputs into it. Nil disables caching.
	ResultCache *rescache.Cache

	// Engine overrides; zero values use each engine's defaults.
	SparkConfig    spark.Config
	FlinkConfig    flink.Config
	RelstoreConfig relstore.Config
	PregelConfig   pregel.Config

	// FastSimulation removes the scaled-down cluster latencies (context
	// startup, job dispatch, shuffle barriers). Unit-style workloads use it;
	// experiments reproduce the paper's overheads with it off.
	FastSimulation bool
}

// Context is the entry point: it owns the platform registry, the storage
// substrates, the cost model, and execution services.
type Context struct {
	Registry *core.Registry
	DFS      *dfs.Store
	Costs    *optimizer.CostTable
	// Metrics is the telemetry registry every execution records into.
	Metrics *telemetry.Registry
	// Cache is the cross-job result cache (nil when disabled).
	Cache *rescache.Cache

	relStores map[string]*relstore.Store
	relDriver *relstore.Driver
	planSeq   int

	// remoteRunner, when set, offers every top-level stage to a distributed
	// scheduler before local execution (see internal/distexec).
	remoteRunner executor.RemoteStageRunner
}

// SetRemoteRunner installs a distributed stage runner (the distexec
// scheduler): every subsequent execution offers its top-level stages to the
// runner before executing them locally. Nil disables remote dispatch.
func (c *Context) SetRemoteRunner(r executor.RemoteStageRunner) { c.remoteRunner = r }

// AllPlatforms lists the bundled platform names.
func AllPlatforms() []string {
	return []string{"streams", "spark", "flink", "relstore", "pregel", "graphmem"}
}

// NewContext builds a context with the configured platforms registered.
func NewContext(cfg Config) (*Context, error) {
	var store *dfs.Store
	var err error
	if cfg.DFSDir != "" {
		store, err = dfs.New(cfg.DFSDir, cfg.DFSOptions)
	} else {
		store, err = dfs.NewTemp(cfg.DFSOptions)
	}
	if err != nil {
		return nil, err
	}
	singleNodeSlowdown := 4.0
	if cfg.FastSimulation {
		// The negative sentinel means "really zero" to each engine's
		// withDefaults (a literal 0 would be replaced by the default).
		const none float64 = driverutil.NoOverheadMs
		cfg.SparkConfig.ContextStartupMs, cfg.SparkConfig.JobStartupMs, cfg.SparkConfig.ShuffleLatencyMs = none, none, none
		cfg.FlinkConfig.ContextStartupMs, cfg.FlinkConfig.JobStartupMs, cfg.FlinkConfig.ExchangeLatencyMs = none, none, none
		cfg.PregelConfig.ContextStartupMs, cfg.PregelConfig.SuperstepMs = none, none
		cfg.RelstoreConfig.QueryLatencyMs = none
		cfg.RelstoreConfig.SimSlowdown = 1
		singleNodeSlowdown = 1
	}

	metrics := cfg.Metrics
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	ctx := &Context{
		Registry:  core.NewRegistry(),
		DFS:       store,
		Metrics:   metrics,
		Cache:     cfg.ResultCache,
		relStores: map[string]*relstore.Store{},
	}
	enabled := map[string]bool{}
	if len(cfg.Platforms) == 0 {
		for _, p := range AllPlatforms() {
			enabled[p] = true
		}
	} else {
		for _, p := range cfg.Platforms {
			enabled[p] = true
		}
	}
	ctx.relDriver = relstore.New(cfg.RelstoreConfig)
	streamsDriver := streams.New(store)
	streamsDriver.SimSlowdown = singleNodeSlowdown
	graphmemDriver := graphmem.New()
	graphmemDriver.SimSlowdown = singleNodeSlowdown
	drivers := map[string]core.Driver{
		"streams":  streamsDriver,
		"spark":    spark.NewWithConfig(store, cfg.SparkConfig),
		"flink":    flink.NewWithConfig(store, cfg.FlinkConfig),
		"relstore": ctx.relDriver,
		"pregel":   pregel.NewWithConfig(cfg.PregelConfig),
		"graphmem": graphmemDriver,
	}
	for _, name := range AllPlatforms() {
		if !enabled[name] {
			continue
		}
		if err := ctx.Registry.Register(drivers[name]); err != nil {
			return nil, err
		}
	}
	if cfg.CostTablePath != "" {
		ctx.Costs, err = optimizer.LoadCostTable(cfg.CostTablePath)
		if err != nil {
			return nil, err
		}
	} else {
		ctx.Costs = optimizer.DefaultCostTable(ctx.Registry)
	}
	return ctx, nil
}

// RelStore returns (creating on first use) a named relational store
// instance attached to the relstore platform — one simulated database
// server per name.
func (c *Context) RelStore(name string) *relstore.Store {
	if s, ok := c.relStores[name]; ok {
		return s
	}
	s := relstore.NewStore(name)
	c.relStores[name] = s
	c.relDriver.Attach(s)
	return s
}

// resolver assembles the source-cardinality resolvers for this context.
func (c *Context) resolver() optimizer.SourceResolver {
	return optimizer.ChainResolvers(
		optimizer.DFSSourceResolver(c.DFS),
		optimizer.LocalFileResolver(),
		optimizer.TableStatsResolver(func(store, table string) (int64, bool) {
			s, ok := c.relStores[store]
			if !ok && len(c.relStores) == 1 && store == "" {
				for _, only := range c.relStores {
					s, ok = only, true
				}
			}
			if !ok {
				return 0, false
			}
			t, err := s.Table(table)
			if err != nil {
				return 0, false
			}
			return int64(t.RowCount()), true
		}),
	)
}

// StageLog re-exports the cost learner's training record so API users can
// collect execution logs without importing internal packages.
type StageLog = costlearn.StageLog

// ExecOption tunes one Execute call.
type ExecOption func(*execConfig)

type execConfig struct {
	progressive    bool
	mismatchFactor float64
	exhaustive     bool
	monetary       bool
	resultCache    bool
	sniffers       map[*core.Operator]func(any)
	collectLogs    *[]StageLog
}

// WithProgressive enables (default) or disables progressive re-optimization.
func WithProgressive(enabled bool) ExecOption {
	return func(ec *execConfig) { ec.progressive = enabled }
}

// WithResultCache enables (default) or disables the cross-job result cache
// for one execution. It has no effect on contexts without a configured
// cache. Disabling skips both probing (the plan always executes from its
// sources) and population.
func WithResultCache(enabled bool) ExecOption {
	return func(ec *execConfig) { ec.resultCache = enabled }
}

// WithMismatchFactor sets the re-optimization trigger threshold.
func WithMismatchFactor(f float64) ExecOption {
	return func(ec *execConfig) { ec.mismatchFactor = f }
}

// WithExhaustiveEnumeration switches the optimizer to the (exponential)
// unpruned enumeration — the pruning ablation.
func WithExhaustiveEnumeration() ExecOption {
	return func(ec *execConfig) { ec.exhaustive = true }
}

// WithMonetaryObjective optimizes for monetary cost instead of runtime:
// each platform's estimated time is weighted by its hourly rate, so cheap
// single-node platforms win even where the cluster would be faster.
func WithMonetaryObjective() ExecOption {
	return func(ec *execConfig) { ec.monetary = true }
}

// WithSniffer attaches an exploratory-mode observer to an operator's output.
func WithSniffer(op *core.Operator, fn func(any)) ExecOption {
	return func(ec *execConfig) {
		if ec.sniffers == nil {
			ec.sniffers = map[*core.Operator]func(any){}
		}
		ec.sniffers[op] = fn
	}
}

// WithLogCollection appends the run's stage logs (cost-learner training
// data) to the given slice.
func WithLogCollection(logs *[]StageLog) ExecOption {
	return func(ec *execConfig) { ec.collectLogs = logs }
}

// Result is the outcome of an executed plan.
type Result struct {
	inner *executor.Result
}

// Collect returns the quanta of the plan's only sink.
func (r *Result) Collect() ([]any, error) { return r.inner.FirstSinkData() }

// CollectFrom returns the quanta of a specific sink.
func (r *Result) CollectFrom(sink *core.Operator) ([]any, error) { return r.inner.SinkData(sink) }

// Replans reports how many progressive re-optimizations occurred.
func (r *Result) Replans() int { return r.inner.Replans }

// Platforms reports the platforms the executed plan used.
func (r *Result) Platforms() []string { return r.inner.Plan.Platforms() }

// Plan returns the executed plan (possibly re-optimized).
func (r *Result) Plan() *core.ExecPlan { return r.inner.Plan }

// Record is the run record: the plan as finally run and one entry per stage
// execution, loop bodies included round by round. It holds no result data,
// so it can outlive the Result; internal/monitor reads its entries.
type Record = executor.Record

// Record returns the run's record.
func (r *Result) Record() Record { return r.inner.Record }

// Profile is the EXPLAIN ANALYZE-style resource report of an executed job:
// per-stage observed wall/CPU/alloc/bytes paired with the optimizer's cost
// estimate and mismatch factor.
type Profile = executor.Profile

// Profile builds the run's resource profile.
func (r *Result) Profile() *Profile { return r.inner.Profile() }

// Optimize compiles a plan without executing it (the --explain path).
func (c *Context) Optimize(p *core.Plan, options ...ExecOption) (*core.ExecPlan, error) {
	ec := newExecConfig(options)
	return optimizer.Optimize(p, c.optimizerOptions(ec))
}

func newExecConfig(options []ExecOption) *execConfig {
	ec := &execConfig{progressive: true, mismatchFactor: 4, resultCache: true}
	for _, o := range options {
		o(ec)
	}
	return ec
}

func (c *Context) optimizerOptions(ec *execConfig) optimizer.Options {
	opts := optimizer.Options{
		Registry:   c.Registry,
		Costs:      c.Costs,
		Resolve:    c.resolver(),
		Exhaustive: ec.exhaustive,
		Metrics:    c.Metrics,
	}
	if ec.monetary {
		opts.Objective = optimizer.ObjectiveMonetary
	}
	return opts
}

// Execute optimizes and runs a plan.
func (c *Context) Execute(p *core.Plan, options ...ExecOption) (*Result, error) {
	return c.ExecuteCtx(context.Background(), p, options...)
}

// ExecuteCtx optimizes and runs a plan under a context: cancellation or an
// expired deadline aborts the execution at the next stage boundary (stage
// outputs are materialized at-rest channels, so nothing needs unwinding).
// This is the path the async job service uses for per-job cancellation and
// deadlines.
func (c *Context) ExecuteCtx(ctx context.Context, p *core.Plan, options ...ExecOption) (*Result, error) {
	ec := newExecConfig(options)
	opts := c.optimizerOptions(ec)
	// Attach the caller's trace span (if any) so the initial optimization —
	// and, via progressive's Checkpoint, every replan — lands in the job's
	// span tree.
	opts.Trace = trace.FromContext(ctx)
	// The cache session probes (and on hits rewrites) the plan before
	// enumeration; its sink-level single-flight may block here until an
	// identical in-flight job publishes its result. Close on every path
	// releases the session's claims so followers never wedge.
	var sess *rescache.Session
	if ec.resultCache {
		sess = c.Cache.Begin(ctx, p)
		defer sess.Close()
	}
	ep, err := optimizer.Optimize(p, opts)
	if err != nil {
		return nil, err
	}
	if sess != nil {
		optimizer.MarkCacheOuts(ep, sess.Fingerprints(), c.Cache.MinCostMs())
	}
	return c.execute(ctx, p, ep, opts, ec)
}

// ExecutePlanned runs an already-optimized plan (used by the experiment
// harness to measure optimization and execution separately).
func (c *Context) ExecutePlanned(p *core.Plan, ep *core.ExecPlan, options ...ExecOption) (*Result, error) {
	ec := newExecConfig(options)
	return c.execute(context.Background(), p, ep, c.optimizerOptions(ec), ec)
}

func (c *Context) execute(ctx context.Context, p *core.Plan, ep *core.ExecPlan, opts optimizer.Options, ec *execConfig) (*Result, error) {
	ex := &executor.Executor{Registry: c.Registry, Sniffers: ec.sniffers, Metrics: c.Metrics, Remote: c.remoteRunner}
	if ec.resultCache && c.Cache != nil {
		ex.Cache = c.Cache
	}
	if ec.progressive {
		re := progressive.New(p, ep, opts)
		re.MismatchFactor = ec.mismatchFactor
		ex.Checkpoint = re.Checkpoint
	}
	res, err := ex.RunCtx(ctx, ep)
	if err != nil {
		return nil, err
	}
	if ec.collectLogs != nil {
		*ec.collectLogs = append(*ec.collectLogs, costlearn.LogsFromStats(res.Entries)...)
	}
	return &Result{inner: res}, nil
}

// Explain renders the plan and its chosen execution plan.
func (c *Context) Explain(p *core.Plan, options ...ExecOption) (string, error) {
	ep, err := c.Optimize(p, options...)
	if err != nil {
		return "", err
	}
	return p.String() + "\n" + ep.String(), nil
}

func (c *Context) nextPlanName(prefix string) string {
	c.planSeq++
	return fmt.Sprintf("%s-%d", prefix, c.planSeq)
}
