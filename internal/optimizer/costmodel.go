// Package optimizer implements RHEEM's cost-based cross-platform optimizer
// (Section 4.1 of the paper): plan inflation through the operator mappings,
// interval-based cardinality estimation with source sampling, a fully
// parameterized UDF-style cost model, data movement planning over the
// channel conversion graph, and plan enumeration with lossless pruning.
package optimizer

import (
	"encoding/json"
	"fmt"
	"os"

	"rheem/internal/core"
)

// CostTable is the cost model the optimizer consumes: per-platform unit costs
// and learned overrides of what execution operators declare. It is what the
// cost learner fits; it serializes to JSON for offline learning.
type CostTable struct {
	Ops       map[string]core.OpCostParams      `json:"ops"`       // learned overrides, by step name
	Platforms map[string]core.PlatformUnitCosts `json:"platforms"` // by platform name
}

// NewCostTable creates an empty table.
func NewCostTable() *CostTable {
	return &CostTable{Ops: map[string]core.OpCostParams{}, Platforms: map[string]core.PlatformUnitCosts{}}
}

// Units returns a platform's unit costs, one millisecond per unit if unknown.
func (ct *CostTable) Units(platform string) core.PlatformUnitCosts {
	if u, ok := ct.Platforms[platform]; ok {
		return u
	}
	return core.PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1}
}

// Rate returns the monetary weight of a platform (relative USD/hour; 1
// when unknown). The optimizer multiplies platform time by it under the
// monetary objective.
func (ct *CostTable) Rate(platform string) float64 {
	if r := ct.Units(platform).UsdPerHour; r > 0 {
		return r
	}
	return 1
}

// params returns a step's learned resource parameters, else its declared ones.
func (ct *CostTable) params(step core.ExecOpTemplate) core.OpCostParams {
	if p, ok := ct.Ops[step.Name]; ok {
		return p
	}
	return step.Cost
}

// OpTimeMs evaluates an execution operator's time on a platform for a
// scalar input cardinality.
func (ct *CostTable) OpTimeMs(step core.ExecOpTemplate, platform string, cin float64) float64 {
	p, u := ct.params(step), ct.Units(platform)
	return p.CPUPerQuantum*cin*u.MsPerCPUUnit +
		p.IOPerQuantum*cin*u.MsPerIOUnit +
		p.NetPerQuantum*cin*u.MsPerNetUnit +
		p.FixedOverhead*u.MsPerFixed
}

// AlternativeCost prices a full alternative (all its execution operator
// steps) for the operator's input and output cardinality intervals. The
// resource functions are affine in (input + output) quanta: pricing the
// output too is what makes expansion-heavy operators (joins, flatmaps)
// costed by the data they produce, not only the data they read.
func (ct *CostTable) AlternativeCost(alt core.Alternative, in, out core.CardEstimate) core.CostInterval {
	lo, hi := 0.0, 0.0
	for _, step := range alt.Steps {
		lo += ct.OpTimeMs(step, alt.Platform, float64(in.Low)+float64(out.Low))
		hi += ct.OpTimeMs(step, alt.Platform, float64(in.High)+float64(out.High))
	}
	conf := in.Confidence
	if out.Confidence > 0 && out.Confidence < conf {
		conf = out.Confidence
	}
	if conf <= 0 {
		conf = 0.1
	}
	return core.CostInterval{LowMs: lo, HighMs: hi, Confidence: conf}
}

// FusedStepOverheadMs returns the per-invocation fixed overhead (in
// milliseconds) of an alternative's steps: the part of its cost that
// pipeline fusion eliminates. When two adjacent narrow operators fuse into
// one single-pass kernel, the downstream operator's per-op dispatch and
// intermediate materialization vanish — its per-tuple UDF cost remains.
func (ct *CostTable) FusedStepOverheadMs(alt core.Alternative) float64 {
	u := ct.Units(alt.Platform)
	total := 0.0
	for _, step := range alt.Steps {
		total += ct.params(step).FixedOverhead * u.MsPerFixed
	}
	return total
}

// Save writes the table as JSON.
func (ct *CostTable) Save(path string) error {
	raw, err := json.MarshalIndent(ct, "", "  ")
	if err != nil {
		return fmt.Errorf("optimizer: marshal cost table: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// LoadCostTable reads a JSON cost table.
func LoadCostTable(path string) (*CostTable, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("optimizer: read cost table: %w", err)
	}
	ct := NewCostTable()
	if err := json.Unmarshal(raw, ct); err != nil {
		return nil, fmt.Errorf("optimizer: parse cost table: %w", err)
	}
	return ct, nil
}

// Clone deep-copies the table (the learner mutates copies).
func (ct *CostTable) Clone() *CostTable {
	out := NewCostTable()
	for k, v := range ct.Ops {
		out.Ops[k] = v
	}
	for k, v := range ct.Platforms {
		out.Platforms[k] = v
	}
	return out
}

// DefaultCostTable builds the cost model of the registered platforms from
// what their drivers declare: each platform's unit costs here, each execution
// operator's parameters on its mapping. The cost learner refines the numbers
// from execution logs.
func DefaultCostTable(reg *core.Registry) *CostTable {
	ct := NewCostTable()
	for _, d := range reg.Drivers() {
		if uc, ok := d.(core.UnitCoster); ok {
			ct.Platforms[d.Name()] = uc.UnitCosts()
		}
	}
	return ct
}
