// Package executor implements RHEEM's executor (Section 4.2): it divides an
// execution plan into stages — maximal platform-uniform subplans whose
// terminal outputs are materialized and that hand control back between
// stages — dispatches ready stages to the platform drivers in parallel
// (inter-platform parallelism), runs conversion operators for cross-
// platform data movement, evaluates loop operators, and feeds the monitor.
// Optimization checkpoints between stages give the progressive optimizer
// its re-planning opportunities.
package executor

import (
	"fmt"

	"rheem/internal/core"
)

// BuildStages divides what is still to run of an execution plan into stages.
// Ops join a producer's stage when they run on the same platform; loop
// operators always form their own singleton pseudo-stage (the executor must
// hold control to evaluate the loop, Figure 7), and broadcast edges always
// cross stage boundaries so broadcast data is materialized. Executed
// operators are in no stage: their outputs are at rest in the channel store,
// so a stage reading one has it as a boundary input and nothing runs twice.
func BuildStages(ep *core.ExecPlan, executed map[*core.Operator]bool) ([]*core.Stage, error) {
	order, err := ep.Plan.TopoOrder()
	if err != nil {
		return nil, err
	}
	stageOf := map[*core.Operator]*core.Stage{}
	var stages []*core.Stage
	nextID := 0

	newStage := func(platform string) *core.Stage {
		nextID++
		s := &core.Stage{
			ID:                nextID,
			Platform:          platform,
			ExecPlan:          ep,
			ExternalIn:        map[*core.Operator][]*core.Operator{},
			ExternalBroadcast: map[*core.Operator][]*core.Operator{},
		}
		stages = append(stages, s)
		return s
	}

	for _, op := range order {
		if executed[op] {
			continue
		}
		if op.Kind.IsLoop() {
			s := newStage("") // executor-run pseudo-stage
			s.Ops = []*core.Operator{op}
			stageOf[op] = s
			continue
		}
		platform := ep.PlatformOf(op)
		if platform == "" {
			return nil, fmt.Errorf("executor: %s has no platform assignment", op)
		}
		// Try to join the stage of a main-input producer on the same
		// platform, unless a broadcast edge from that stage feeds this op.
		var target *core.Stage
		for _, producer := range op.Inputs() {
			ps := stageOf[producer]
			if ps == nil || ps.Platform != platform {
				continue
			}
			if broadcastsInto(op, ps) {
				continue
			}
			target = ps
			break
		}
		if target == nil {
			target = newStage(platform)
		}
		target.Ops = append(target.Ops, op)
		stageOf[op] = target
	}

	// Boundary bookkeeping: external inputs, broadcasts, terminal outputs.
	for _, op := range ep.Plan.Operators() {
		s := stageOf[op]
		if s == nil {
			continue
		}
		for _, producer := range op.Inputs() {
			if stageOf[producer] != s {
				s.ExternalIn[op] = append(s.ExternalIn[op], producer)
			}
		}
		for _, producer := range op.Broadcasts() {
			s.ExternalBroadcast[op] = append(s.ExternalBroadcast[op], producer)
		}
	}
	terminal := map[*core.Operator]bool{}
	for _, e := range ep.Plan.Edges() {
		if stageOf[e.From] != stageOf[e.To] || e.Broadcast {
			terminal[e.From] = true
		}
	}
	for _, op := range ep.Plan.Operators() {
		if op.Kind.IsSink() && !op.Kind.IsLoop() {
			terminal[op] = true
		}
		// Operators referenced by loop bodies must be materialized too.
		for _, ref := range op.OuterRefs() {
			terminal[ref.OuterRef] = true
		}
	}
	if ep.Plan.LoopOutput != nil {
		terminal[ep.Plan.LoopOutput] = true
	}
	for op := range terminal {
		// Loop pseudo-stages (empty platform) publish their output channel
		// directly from the loop evaluation, not via driver materialization.
		if s := stageOf[op]; s != nil && s.Platform != "" {
			s.TerminalOuts = append(s.TerminalOuts, op)
		}
	}
	// Deterministic terminal order (insertion order of ops in stage).
	for _, s := range stages {
		ordered := make([]*core.Operator, 0, len(s.TerminalOuts))
		for _, op := range s.Ops {
			for _, t := range s.TerminalOuts {
				if t == op {
					ordered = append(ordered, op)
				}
			}
		}
		s.TerminalOuts = ordered
	}
	return stages, nil
}

func broadcastsInto(op *core.Operator, s *core.Stage) bool {
	for _, b := range op.Broadcasts() {
		if s.Contains(b) {
			return true
		}
	}
	return false
}

// stageDeps computes, per stage, the set of stages it depends on.
func stageDeps(ep *core.ExecPlan, stages []*core.Stage) map[*core.Stage]map[*core.Stage]bool {
	stageOf := map[*core.Operator]*core.Stage{}
	for _, s := range stages {
		for _, op := range s.Ops {
			stageOf[op] = s
		}
	}
	deps := map[*core.Stage]map[*core.Stage]bool{}
	for _, s := range stages {
		deps[s] = map[*core.Stage]bool{}
	}
	for _, e := range ep.Plan.Edges() {
		from, to := stageOf[e.From], stageOf[e.To]
		if from != nil && to != nil && from != to {
			deps[to][from] = true
		}
	}
	// Loops depend on the stages producing their outer references.
	for _, s := range stages {
		for _, op := range s.Ops {
			for _, ref := range op.OuterRefs() {
				if ps := stageOf[ref.OuterRef]; ps != nil && ps != s {
					deps[s][ps] = true
				}
			}
		}
	}
	return deps
}
