package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rheem/internal/simclock"
)

// CostInterval is an interval-based cost estimate in milliseconds with a
// confidence value (Figure 6 of the paper).
type CostInterval struct {
	LowMs, HighMs float64
	Confidence    float64
}

// Add sums two cost intervals.
func (c CostInterval) Add(o CostInterval) CostInterval {
	conf := c.Confidence
	if o.Confidence < conf {
		conf = o.Confidence
	}
	if c.Confidence == 0 {
		conf = o.Confidence
	}
	return CostInterval{LowMs: c.LowMs + o.LowMs, HighMs: c.HighMs + o.HighMs, Confidence: conf}
}

// Scale multiplies the interval by a factor (e.g. loop iteration count).
func (c CostInterval) Scale(f float64) CostInterval {
	return CostInterval{LowMs: c.LowMs * f, HighMs: c.HighMs * f, Confidence: c.Confidence}
}

// Geomean returns the geometric mean of the bounds: the scalar used to
// compare plans ("the geometric mean of the lower and upper bounds").
func (c CostInterval) Geomean() float64 {
	lo, hi := c.LowMs, c.HighMs
	if lo < 0.001 {
		lo = 0.001
	}
	if hi < lo {
		hi = lo
	}
	return sqrt(lo * hi)
}

func sqrt(x float64) float64 {
	// Newton iterations; avoids importing math in this file for one call.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func (c CostInterval) String() string {
	return fmt.Sprintf("[%.1f..%.1f]ms@%.0f%%", c.LowMs, c.HighMs, c.Confidence*100)
}

// Assignment records the optimizer's decision for one logical operator: the
// chosen alternative plus the estimated cardinality of its output.
type Assignment struct {
	Alt     Alternative
	OutCard CardEstimate
	CostEst CostInterval
}

// MovementPlan records how the output of a producer operator reaches its
// consumers on other platforms: a conversion tree rooted at the producer's
// output channel.
type MovementPlan struct {
	Producer *Operator
	Tree     *ConversionTree
	CostEst  CostInterval
}

// ExecPlan is an execution plan: the input RheemPlan plus, per operator,
// the chosen execution alternative, and per cross-platform edge, the chosen
// data movement strategy.
type ExecPlan struct {
	Plan        *Plan
	Assignments map[*Operator]*Assignment
	Movements   map[*Operator]*MovementPlan
	Cost        CostInterval

	// LoopBodies holds the (pre-)optimized execution plans of loop bodies,
	// keyed by the loop operator.
	LoopBodies map[*Operator]*ExecPlan

	// CacheOuts marks operators whose materialized output the executor
	// should publish to the cross-job result cache after the producing stage
	// completes. Populated by the optimizer's cache-marking pass.
	CacheOuts map[*Operator]*CacheOut
}

// CacheOut describes one cache-worthy operator output: the subtree
// fingerprint to store it under, the estimated compute cost the cache entry
// saves on a future hit, and the source datasets whose invalidation must
// drop it.
type CacheOut struct {
	Fingerprint string
	CostMs      float64
	Sources     []SourceRef
}

// PlatformOf returns the platform an operator was assigned to, "" when the
// plan does not place it.
func (ep *ExecPlan) PlatformOf(op *Operator) string {
	if a := ep.Assignments[op]; a != nil {
		return a.Alt.Platform
	}
	return ""
}

// InChannels returns the channels op reads its inputs in, in preference
// order: those of the alternative it was placed on, a driver collection when
// it declares none. Planner, validator and executor all ask this.
func (ep *ExecPlan) InChannels(op *Operator) []string {
	if a := ep.Assignments[op]; a != nil {
		if in := a.Alt.InChannels(); len(in) > 0 {
			return in
		}
	}
	return []string{"collection"}
}

// OutChannel returns the channel op's output is declared to be produced in:
// its alternative's out-channel, a driver collection for a loop (the
// executor evaluates it), "" for an operator the plan does not place.
func (ep *ExecPlan) OutChannel(op *Operator) string {
	if op.Kind.IsLoop() {
		return "collection"
	}
	if a := ep.Assignments[op]; a != nil {
		return a.Alt.OutChannel()
	}
	return ""
}

// Reads calls visit for every read of an operator's output the plan makes,
// with the channels the reader accepts: a consumer's input port, a broadcast
// and a loop's input (driver collections both), an outer reference of a loop
// body (what the body placed its placeholder to read) and, in a body plan,
// the loop output (the collection the executor carries into the next round).
// The movement planner serves exactly these readers and Validate checks them.
// Every loop must have its body plan attached.
func (ep *ExecPlan) Reads(visit func(producer *Operator, accepts []string, reader string) error) error {
	collection := []string{"collection"}
	for _, e := range ep.Plan.Edges() {
		accepts := collection
		if !e.Broadcast && !e.To.Kind.IsLoop() {
			accepts = ep.InChannels(e.To)
		}
		if err := visit(e.From, accepts, e.To.String()); err != nil {
			return err
		}
	}
	for _, op := range ep.Plan.Operators() {
		for _, ref := range op.OuterRefs() {
			if err := visit(ref.OuterRef, ep.LoopBodies[op].InChannels(ref), fmt.Sprintf("%s of loop %s", ref, op)); err != nil {
				return err
			}
		}
	}
	if out := ep.Plan.LoopOutput; out != nil {
		return visit(out, collection, "the loop output")
	}
	return nil
}

// Validate checks that the plan can run as written, so the executor never has
// to plan: every operator is placed on a registered platform, every movement
// tree is rooted at its producer's declared out-channel with its edges ordered
// parents-first, and every reader (see Reads) accepts a form its producer's
// tree makes; loop bodies recursively.
func (ep *ExecPlan) Validate(reg *Registry) error {
	for _, op := range ep.Plan.Operators() {
		if op.Kind.IsLoop() {
			body := ep.LoopBodies[op]
			if body == nil {
				return fmt.Errorf("core: loop %s has no optimized body", op)
			}
			if err := body.Validate(reg); err != nil {
				return fmt.Errorf("core: loop %s: %w", op, err)
			}
		} else if _, err := reg.Driver(ep.PlatformOf(op)); err != nil {
			return fmt.Errorf("core: %s: %w", op, err)
		}
	}
	made := map[*Operator]map[string]bool{} // producer -> the forms its output takes
	for producer, mv := range ep.Movements {
		if root := ep.OutChannel(producer); mv.Tree.Root != root {
			return fmt.Errorf("core: movement of %s is rooted at %q but the operator produces %q", producer, mv.Tree.Root, root)
		}
		forms := map[string]bool{mv.Tree.Root: true}
		for _, e := range mv.Tree.Edges {
			if !forms[e.From] {
				return fmt.Errorf("core: movement of %s runs %s before anything makes %q", producer, e.Name, e.From)
			}
			forms[e.To] = true
		}
		made[producer] = forms
	}
	return ep.Reads(func(producer *Operator, accepts []string, reader string) error {
		from := ep.OutChannel(producer)
		for _, ch := range accepts {
			if ch == from || made[producer][ch] {
				return nil
			}
		}
		return fmt.Errorf("core: %s reads %s in %v, but it is produced as %q and no movement is planned to any of them", reader, producer, accepts, from)
	})
}

// Platforms returns the distinct platforms used by the plan, sorted.
func (ep *ExecPlan) Platforms() []string {
	set := map[string]bool{}
	for op := range ep.Assignments {
		if p := ep.PlatformOf(op); p != "" {
			set[p] = true
		}
	}
	for _, body := range ep.LoopBodies {
		for _, p := range body.Platforms() {
			set[p] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// String renders the execution plan for --explain output.
func (ep *ExecPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ExecutionPlan for %q (cost %s)\n", ep.Plan.Name, ep.Cost)
	ops, _ := ep.Plan.TopoOrder()
	for _, op := range ops {
		a := ep.Assignments[op]
		if a == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-34s -> %-28s card=%s cost=%s\n", op.String(), a.Alt.String(), a.OutCard, a.CostEst)
		if mv := ep.Movements[op]; mv != nil && len(mv.Tree.Edges) > 0 {
			fmt.Fprintf(&b, "  %-34s    movement:", "")
			for _, e := range mv.Tree.Edges {
				fmt.Fprintf(&b, " %s", e.Name)
			}
			fmt.Fprintf(&b, " (cost=%s)\n", mv.CostEst)
		}
		if body := ep.LoopBodies[op]; body != nil {
			inner := body.String()
			for _, line := range strings.Split(strings.TrimRight(inner, "\n"), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	return b.String()
}

// Stage is a maximal subplan whose operators all run on the same platform
// and that hands control back to the executor at its end, materializing its
// terminal outputs (Section 4.2).
type Stage struct {
	ID       int
	Platform string
	Ops      []*Operator // in topological order
	ExecPlan *ExecPlan   // the surrounding execution plan (for assignments)

	// Boundary inputs: operator input ports fed from outside the stage.
	// Keyed by consumer operator; values are per-port producer operators.
	ExternalIn map[*Operator][]*Operator
	// Broadcast inputs from outside the stage.
	ExternalBroadcast map[*Operator][]*Operator
	// Terminal operators whose outputs must be materialized into channels.
	TerminalOuts []*Operator

	// Sniffers, when set, receive every quantum passing the tagged
	// operator's output (exploratory mode).
	Sniffers map[*Operator]func(q any)
}

// Contains reports whether the stage includes op.
func (s *Stage) Contains(op *Operator) bool {
	for _, o := range s.Ops {
		if o == op {
			return true
		}
	}
	return false
}

func (s *Stage) String() string {
	names := make([]string, len(s.Ops))
	for i, o := range s.Ops {
		names[i] = o.String()
	}
	return fmt.Sprintf("Stage%d@%s{%s}", s.ID, s.Platform, strings.Join(names, ", "))
}

// OpStats are the monitor's per-operator observations within a stage run.
type OpStats struct {
	OutCard int64         // true output cardinality
	Runtime time.Duration // attributed share of the stage runtime
}

// Observation pairs what the optimizer assigned one operator, under the plan
// its stage ran (nil when that plan does not place it), with what the stage
// observed of it.
type Observation struct {
	Op       *Operator
	Assigned *Assignment
	OpStats
	Observed bool
}

// Observations calls fn for each operator of the stage, in stage order. It is
// the one join of estimate and observation: profiles, spans, the monitor's
// snapshot and the cost learner's logs are all renderings of it.
func (st *StageStats) Observations(fn func(Observation)) {
	for _, op := range st.Stage.Ops {
		o := Observation{Op: op}
		if ep := st.Stage.ExecPlan; ep != nil {
			o.Assigned = ep.Assignments[op]
		}
		o.OpStats, o.Observed = st.Ops[op]
		fn(o)
	}
}

// VectorChainStats describes the columnar execution of one fused chain: how
// many of its leading steps compiled to column-wise loops, and how many
// morsels / rows ran vectorized vs. fell back to the row kernel
// (unbatchable input, type or null mismatches, sniffed steps).
type VectorChainStats struct {
	Ops        []*Operator // the chain, head first (absorbed aggregation last)
	VecSteps   int         // leading steps compiled to column loops
	Batches    int64       // morsels executed column-wise
	Rows       int64       // rows that took the vectorized path
	Fallbacks  int64       // morsels that fell back to the row kernel
	AggBatches int64       // morsels absorbed by the grouped-aggregation kernel
	AggRows    int64       // surviving rows the aggregation kernel absorbed
}

// StageStats are the monitor's observations of one stage execution: one entry
// of the run record. The plan the stage ran under is Stage.ExecPlan.
type StageStats struct {
	Stage   *Stage
	Runtime time.Duration
	Ops     map[*Operator]OpStats
	// Loop and Round place a loop-body stage: the loop whose body it belongs
	// to and the iteration it ran in. Loop is nil for a top-level stage.
	Loop  *Operator
	Round int
	// FusedChains lists the narrow-operator chains the engine executed as
	// single-pass fused kernels (each entry is the chain's ops, head first).
	FusedChains [][]*Operator

	// Vectorized records, per fused chain whose leading steps compiled to
	// column-wise loops, what the vectorized path actually did at run time
	// (the same chain appears in FusedChains too).
	Vectorized []VectorChainStats

	// Resource accounting for per-job profiles. CPUTime, AllocBytes, and
	// BytesMoved are the stage's share of its wave's process-level deltas,
	// attributed proportionally to stage wall time (exact when the wave ran
	// a single stage); InQuanta counts the quanta read from the stage's
	// input channels.
	CPUTime    time.Duration
	AllocBytes int64
	BytesMoved int64
	InQuanta   int64
}

// Inputs is the set of channels a stage execution reads: main dataflow
// inputs keyed by (consumer, port) and broadcast inputs keyed by
// (consumer, producer).
type Inputs struct {
	Main      map[*Operator][]*Channel // per consumer, per port
	Broadcast map[*Operator]map[*Operator]*Channel
	// Round is the surrounding loop's current iteration and loop-run state
	// (the zero Round outside loops).
	Round Round
	// Clock charges the stage's simulated latencies. The executor hands every
	// stage of one run, loop rounds included, the same clock; nil charges on a
	// fresh one.
	Clock *simclock.Clock
}

// NewInputs creates an empty input set.
func NewInputs() *Inputs {
	return &Inputs{
		Main:      map[*Operator][]*Channel{},
		Broadcast: map[*Operator]map[*Operator]*Channel{},
	}
}

// SetMain records the channel feeding a consumer's input port.
func (in *Inputs) SetMain(consumer *Operator, port int, ch *Channel) {
	slots := in.Main[consumer]
	for len(slots) <= port {
		slots = append(slots, nil)
	}
	slots[port] = ch
	in.Main[consumer] = slots
}

// SetBroadcast records a broadcast channel from producer into consumer.
func (in *Inputs) SetBroadcast(consumer, producer *Operator, ch *Channel) {
	m := in.Broadcast[consumer]
	if m == nil {
		m = map[*Operator]*Channel{}
		in.Broadcast[consumer] = m
	}
	m[producer] = ch
}

// Driver is the interface platform packages implement: the executor hands a
// stage plus its input channels to the owning platform's driver, which runs
// it natively and returns the materialized terminal outputs along with
// monitoring statistics.
type Driver interface {
	// Name returns the platform name, e.g. "spark".
	Name() string
	// Execute runs the stage and returns one output channel per terminal
	// operator.
	Execute(stage *Stage, in *Inputs) (map[*Operator]*Channel, *StageStats, error)
	// ChannelDescriptors lists the channel types this platform owns.
	ChannelDescriptors() []ChannelDescriptor
	// Conversions lists the conversion operators this platform contributes
	// (e.g. collection -> rdd, rdd -> collection).
	Conversions() []*Conversion
	// RegisterMappings contributes the platform's operator mappings.
	RegisterMappings(r *MappingRegistry)
}

// StartupCoster is optionally implemented by drivers whose platform incurs
// a fixed start-up cost the optimizer must account for. It is the only
// start-up quote there is: the cost table carries none. bootMs is what the
// platform's next stage pays once (the context boot, zero once paid), stageMs
// what every stage pays.
type StartupCoster interface {
	StartupCostMs() (bootMs, stageMs float64)
}

// UnitCoster is optionally implemented by drivers that declare their unit costs.
type UnitCoster interface {
	UnitCosts() PlatformUnitCosts
}

// PlatformUnitCosts convert resource units into milliseconds for one
// platform deployment (the configuration file of the paper: hardware
// characteristics such as number of nodes and CPU cores are folded in).
type PlatformUnitCosts struct {
	MsPerCPUUnit float64 `json:"ms_per_cpu_unit"`
	MsPerIOUnit  float64 `json:"ms_per_io_unit"`
	MsPerNetUnit float64 `json:"ms_per_net_unit"`
	MsPerFixed   float64 `json:"ms_per_fixed"`
	UsdPerHour   float64 `json:"usd_per_hour"` // monetary rate, for the monetary objective
}
