// Package progressive implements RHEEM's progressive query optimization
// (Section 4.4): whenever the cardinalities observed by the monitor
// mismatch the optimizer's estimates beyond a threshold, the execution is
// paused at an optimization checkpoint and the plan is optimized again as a
// whole with the progress so far handed to the optimizer: what ran is pinned
// to the alternative it ran under, the true cardinalities replace the
// estimates, and execution resumes with the new plan — already-produced
// results are kept and nothing runs twice.
package progressive

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"rheem/internal/core"
	"rheem/internal/monitor"
	"rheem/internal/optimizer"
	"rheem/internal/trace"
)

// Reoptimizer produces the executor's checkpoint hook for one plan run.
type Reoptimizer struct {
	// Opts are the optimization options used for re-planning.
	Opts optimizer.Options
	// MismatchFactor triggers re-optimization when an observed cardinality
	// falls outside the estimated interval by at least this factor.
	// Default 4.
	MismatchFactor float64
	// MaxReplans bounds re-optimizations per run ("any number of times at a
	// negligible cost" in the paper; bounded here for safety). Default 3.
	MaxReplans int

	plan    *core.Plan
	current *core.ExecPlan
	replans int
}

// New creates a reoptimizer for a plan whose current execution plan is ep.
func New(plan *core.Plan, ep *core.ExecPlan, opts optimizer.Options) *Reoptimizer {
	return &Reoptimizer{Opts: opts, MismatchFactor: 4, MaxReplans: 3, plan: plan, current: ep}
}

// Replans returns how many re-optimizations occurred.
func (r *Reoptimizer) Replans() int { return r.replans }

// Checkpoint implements the executor's CheckpointFn: it runs the monitor's
// health check of the run record against the current plan's estimates and
// re-optimizes the remainder when a mismatch is gross. The replan is traced as
// a replan-N span under the span carried by ctx, annotated with the triggering
// mismatches.
func (r *Reoptimizer) Checkpoint(ctx context.Context, record []*core.StageStats, executed map[*core.Operator]bool) (*core.ExecPlan, error) {
	if r.replans >= r.MaxReplans {
		return nil, nil
	}
	threshold := r.MismatchFactor
	if threshold <= 1 {
		threshold = 4
	}
	mismatches := monitor.HealthCheck(record, r.current, threshold)
	if len(mismatches) == 0 {
		return nil, nil
	}
	opts := r.Opts
	opts.Resume = &optimizer.Progress{Plan: r.current, Executed: executed, Observed: monitor.ObservedCards(record)}
	if sp := trace.FromContext(ctx); sp != nil {
		rsp := sp.Start(trace.KindReplan, "replan-"+strconv.Itoa(r.replans+1))
		rsp.SetAttr("mismatch", renderMismatches(mismatches))
		rsp.SetInt("mismatch_count", int64(len(mismatches)))
		opts.Trace = rsp
		defer rsp.End()
	}
	newEP, err := optimizer.Optimize(r.plan, opts)
	if err != nil {
		return nil, err
	}
	r.current = newEP
	r.replans++
	return newEP, nil
}

// renderMismatches flattens the triggering mismatches, which the health check
// ranked worst first, into one span attribute.
func renderMismatches(ms []monitor.Mismatch) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("op=%s observed=%d est=%s factor=%.1f", m.Op, m.Observed, m.Estimate, m.Factor)
	}
	return strings.Join(parts, "; ")
}
