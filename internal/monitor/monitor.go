// Package monitor implements RHEEM's execution monitor (Section 4.3) as
// functions of the run record. The executor collects each executed stage's
// light-weight statistics once — true output cardinalities and operator
// runtimes, with lazy-execution-aware attribution done by the drivers — in
// one ordered list; this package reads that list: the cardinalities seen so
// far, the health check comparing them against the optimizer's estimates
// (large mismatches hand control to the progressive optimizer), and the
// summary a job's status reports.
package monitor

import (
	"sort"
	"time"

	"rheem/internal/core"
)

// ObservedCards returns the true output cardinalities the record holds. An
// operator that ran more than once (a loop body's) reports its last run.
func ObservedCards(record []*core.StageStats) map[*core.Operator]int64 {
	out := map[*core.Operator]int64{}
	for _, st := range record {
		for op, os := range st.Ops {
			out[op] = os.OutCard
		}
	}
	return out
}

// OpSnapshot is one operator's observations, rendered with plain types so
// it can be serialized into a job status payload.
type OpSnapshot struct {
	Op        string  `json:"op"`
	OutCard   int64   `json:"out_card"`
	RuntimeMs float64 `json:"runtime_ms"`
}

// StageSnapshot is one executed stage's observations. Loop and Round are
// set on loop-body stages, which appear once per iteration.
type StageSnapshot struct {
	Stage     string       `json:"stage"`
	Platform  string       `json:"platform"`
	Loop      string       `json:"loop,omitempty"`
	Round     int          `json:"round,omitempty"`
	RuntimeMs float64      `json:"runtime_ms"`
	Ops       []OpSnapshot `json:"ops,omitempty"`
}

// Snapshot is a serializable summary of a run record; a finished job's
// status payload carries it so per-job stage timings are queryable over REST.
type Snapshot struct {
	Stages         []StageSnapshot `json:"stages"`
	TotalRuntimeMs float64         `json:"total_runtime_ms"`
}

// Summarize renders the record with stages in completion order and each
// stage's operators sorted by name.
func Summarize(record []*core.StageStats) Snapshot {
	snap := Snapshot{}
	for _, st := range record {
		ss := StageSnapshot{
			Stage:     st.Stage.String(),
			Platform:  st.Stage.Platform,
			Round:     st.Round,
			RuntimeMs: float64(st.Runtime) / float64(time.Millisecond),
		}
		if st.Loop != nil {
			ss.Loop = st.Loop.String()
		}
		st.Observations(func(o core.Observation) {
			if o.Observed {
				ss.Ops = append(ss.Ops, OpSnapshot{
					Op:        o.Op.String(),
					OutCard:   o.OutCard,
					RuntimeMs: float64(o.Runtime) / float64(time.Millisecond),
				})
			}
		})
		sort.Slice(ss.Ops, func(i, j int) bool { return ss.Ops[i].Op < ss.Ops[j].Op })
		snap.Stages = append(snap.Stages, ss)
		snap.TotalRuntimeMs += ss.RuntimeMs
	}
	return snap
}

// Mismatch is a health-check finding: an operator whose observed output
// cardinality fell outside its estimated interval.
type Mismatch struct {
	Op       *core.Operator
	Estimate core.CardEstimate
	Observed int64
	Factor   float64
}

// HealthCheck compares the record's observations against ep's estimates and
// returns the mismatches of at least factor, worst first. ep is the plan in
// force now, not the one an entry ran under: a replan adopts what was
// observed, so what triggered it does not trigger the next one. Operators ep
// does not place (loop bodies', which its body plans hold) are ignored.
func HealthCheck(record []*core.StageStats, ep *core.ExecPlan, factor float64) []Mismatch {
	var out []Mismatch
	for _, st := range record {
		for op, os := range st.Ops {
			a := ep.Assignments[op]
			if a == nil {
				continue
			}
			if f := a.OutCard.MismatchFactor(os.OutCard); f >= factor {
				out = append(out, Mismatch{Op: op, Estimate: a.OutCard, Observed: os.OutCard, Factor: f})
			}
		}
	}
	// Equal factors order by operator name so the ranking is deterministic
	// across runs (map iteration above is not).
	sort.Slice(out, func(i, j int) bool {
		if out[i].Factor != out[j].Factor {
			return out[i].Factor > out[j].Factor
		}
		return out[i].Op.String() < out[j].Op.String()
	})
	return out
}
