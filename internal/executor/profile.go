package executor

import (
	"time"

	"rheem/internal/core"
)

// EXPLAIN ANALYZE for jobs: Record.Profile folds a finished run's record and
// the plan's cost estimates into one report pairing what the optimizer
// predicted with what actually happened. The mismatch factors are the
// feedstock for the learned-optimizer roadmap item — a stage whose observed
// cost is 10x its estimate is exactly the training signal the workload-aware
// cost model needs.

// Profile is the resource report of one executed job.
type Profile struct {
	// PlanCostMs is the optimizer's estimated cost of the chosen plan
	// (geomean of the final plan's cost interval).
	PlanCostMs float64 `json:"plan_cost_ms"`
	// WallMs is the summed wall time of all stages — concurrent stages
	// count fully, so this can exceed the job's elapsed time.
	WallMs float64 `json:"wall_ms"`
	// MismatchFactor compares WallMs to PlanCostMs (>=1; 1 = perfect
	// estimate; 0 when either side is unknown).
	MismatchFactor float64        `json:"mismatch_factor"`
	CPUMs          float64        `json:"cpu_ms"`
	AllocBytes     int64          `json:"alloc_bytes"`
	BytesMoved     int64          `json:"bytes_moved"`
	QuantaIn       int64          `json:"quanta_in"`
	QuantaOut      int64          `json:"quanta_out"`
	Replans        int            `json:"replans"`
	Stages         []StageProfile `json:"stages"`
}

// StageProfile pairs one stage's observed resources with its estimate. Loop
// and Round are set on loop-body stages, which appear once per iteration.
type StageProfile struct {
	Stage    string `json:"stage"`
	Platform string `json:"platform"`
	Loop     string `json:"loop,omitempty"`
	Round    int    `json:"round,omitempty"`

	WallMs     float64 `json:"wall_ms"`
	CPUMs      float64 `json:"cpu_ms"`
	AllocBytes int64   `json:"alloc_bytes"`
	BytesMoved int64   `json:"bytes_moved"`
	QuantaIn   int64   `json:"quanta_in"`
	QuantaOut  int64   `json:"quanta_out"`

	// EstCostMs is the optimizer's estimate for the stage (geomean of the
	// summed cost intervals of the stage's placed operators), and
	// MismatchFactor compares the observed wall time against it.
	EstCostMs      float64     `json:"est_cost_ms"`
	MismatchFactor float64     `json:"mismatch_factor"`
	Operators      []OpProfile `json:"operators"`
}

// OpProfile is one operator's observed vs. estimated figures.
type OpProfile struct {
	Operator      string  `json:"operator"`
	WallMs        float64 `json:"wall_ms"`
	ObservedCard  int64   `json:"observed_card"`
	EstimatedCard string  `json:"estimated_card,omitempty"`
	// CardMismatch is the cardinality estimate's mismatch factor against
	// the observed output (>=1; 0 when no estimate exists).
	CardMismatch float64 `json:"card_mismatch,omitempty"`
	EstCostMs    float64 `json:"est_cost_ms,omitempty"`
}

// mismatch reports how far observed strayed from estimated as a >=1 factor,
// direction-insensitive; 0 when either side is unknown.
func mismatch(observed, estimated float64) float64 {
	if observed <= 0 || estimated <= 0 {
		return 0
	}
	if observed > estimated {
		return observed / estimated
	}
	return estimated / observed
}

// Profile renders the record as a profile, stages in execution order. A
// loop's body stages are itemized once per round, so the plan's estimate,
// which prices every round of a body, is compared with wall time that holds
// every round too.
func (r *Record) Profile() *Profile {
	p := &Profile{Replans: r.Replans}
	if r.Plan != nil {
		p.PlanCostMs = r.Plan.Cost.Geomean()
	}
	for _, st := range r.Entries {
		sp := StageProfile{
			Stage:      st.Stage.String(),
			Platform:   st.Stage.Platform,
			Round:      st.Round,
			WallMs:     float64(st.Runtime) / float64(time.Millisecond),
			CPUMs:      float64(st.CPUTime) / float64(time.Millisecond),
			AllocBytes: st.AllocBytes,
			BytesMoved: st.BytesMoved,
			QuantaIn:   st.InQuanta,
		}
		if st.Loop != nil {
			sp.Loop = st.Loop.String()
		}
		for _, op := range st.Stage.TerminalOuts {
			sp.QuantaOut += st.Ops[op].OutCard
		}
		var est core.CostInterval
		haveEst := false
		st.Observations(func(o core.Observation) {
			if o.Assigned == nil && !o.Observed {
				return
			}
			opp := OpProfile{
				Operator:     o.Op.String(),
				WallMs:       float64(o.Runtime) / float64(time.Millisecond),
				ObservedCard: o.OutCard,
			}
			if o.Assigned != nil {
				opp.EstimatedCard = o.Assigned.OutCard.String()
				if o.Observed {
					opp.CardMismatch = o.Assigned.OutCard.MismatchFactor(o.OutCard)
				}
				opp.EstCostMs = o.Assigned.CostEst.Geomean()
				est = est.Add(o.Assigned.CostEst)
				haveEst = true
			}
			sp.Operators = append(sp.Operators, opp)
		})
		if haveEst {
			sp.EstCostMs = est.Geomean()
		}
		sp.MismatchFactor = mismatch(sp.WallMs, sp.EstCostMs)

		p.WallMs += sp.WallMs
		p.CPUMs += sp.CPUMs
		p.AllocBytes += sp.AllocBytes
		p.BytesMoved += sp.BytesMoved
		p.QuantaIn += sp.QuantaIn
		p.QuantaOut += sp.QuantaOut
		p.Stages = append(p.Stages, sp)
	}
	p.MismatchFactor = mismatch(p.WallMs, p.PlanCostMs)
	return p
}
