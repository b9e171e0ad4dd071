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
	"strings"

	"rheem/internal/core"
)

// OpCostParams are the learnable resource-usage parameters of one execution
// operator (cost key): the paper's r^m_o functions, affine in the input
// cardinality. Units are abstract resource units; the platform's unit costs
// convert them to milliseconds.
type OpCostParams struct {
	// CPUPerQuantum is the paper's (alpha + beta): CPU units consumed per
	// input quantum by the operator and its UDF.
	CPUPerQuantum float64 `json:"cpu_per_quantum"`
	// IOPerQuantum is disk I/O units per input quantum.
	IOPerQuantum float64 `json:"io_per_quantum"`
	// NetPerQuantum is network units per input quantum.
	NetPerQuantum float64 `json:"net_per_quantum"`
	// FixedOverhead is the paper's delta: start-up/scheduling units per
	// operator invocation.
	FixedOverhead float64 `json:"fixed_overhead"`
}

// PlatformUnitCosts convert resource units into milliseconds for one
// platform deployment (the configuration file of the paper: hardware
// characteristics such as number of nodes and CPU cores are folded in).
type PlatformUnitCosts struct {
	MsPerCPUUnit float64 `json:"ms_per_cpu_unit"`
	MsPerIOUnit  float64 `json:"ms_per_io_unit"`
	MsPerNetUnit float64 `json:"ms_per_net_unit"`
	MsPerFixed   float64 `json:"ms_per_fixed"`
	// UsdPerHour is the platform's monetary rate, used when optimizing for
	// monetary cost instead of runtime ("the cost can be any user-specified
	// cost, e.g., runtime or monetary cost").
	UsdPerHour float64 `json:"usd_per_hour"`
}

// CostTable is the complete cost model: per-operator parameters plus
// per-platform unit costs. It is what the cost learner fits and what the
// optimizer consumes; it serializes to JSON for offline learning.
type CostTable struct {
	Ops       map[string]OpCostParams      `json:"ops"`       // by cost key
	Platforms map[string]PlatformUnitCosts `json:"platforms"` // by platform name
}

// NewCostTable creates an empty table.
func NewCostTable() *CostTable {
	return &CostTable{Ops: map[string]OpCostParams{}, Platforms: map[string]PlatformUnitCosts{}}
}

// Rate returns the monetary weight of a platform (relative USD/hour; 1
// when unknown). The optimizer multiplies platform time by it under the
// monetary objective.
func (ct *CostTable) Rate(platform string) float64 {
	if u, ok := ct.Platforms[platform]; ok && u.UsdPerHour > 0 {
		return u.UsdPerHour
	}
	return 1
}

// OpTimeMs evaluates an execution operator's time for a scalar input
// cardinality.
func (ct *CostTable) OpTimeMs(costKey, platform string, cin float64) float64 {
	p, ok := ct.Ops[costKey]
	if !ok {
		p = defaultParamsFor(costKey)
	}
	u, ok := ct.Platforms[platform]
	if !ok {
		u = PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1}
	}
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
		lo += ct.OpTimeMs(step.Name, alt.Platform, float64(in.Low)+float64(out.Low))
		hi += ct.OpTimeMs(step.Name, alt.Platform, float64(in.High)+float64(out.High))
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
	u, ok := ct.Platforms[alt.Platform]
	if !ok {
		u = PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1}
	}
	total := 0.0
	for _, step := range alt.Steps {
		p, ok := ct.Ops[step.Name]
		if !ok {
			p = defaultParamsFor(step.Name)
		}
		total += p.FixedOverhead * u.MsPerFixed
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

// DefaultCostTable builds a calibrated-by-construction cost model for the
// in-process engines. The shape (who is cheap at what) encodes the platform
// archetypes; the cost learner refines the numbers from execution logs.
func DefaultCostTable(platforms []string) *CostTable {
	ct := NewCostTable()
	for _, p := range platforms {
		switch p {
		case "streams":
			// Single-threaded: highest per-quantum CPU, zero startup, runs on
			// the (already-paid) driver machine.
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1, UsdPerHour: 0.5}
		case "spark":
			// Parallel scans: low per-quantum cost, big startup.
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 0.22, MsPerIOUnit: 0.35, MsPerNetUnit: 1.2, MsPerFixed: 6, UsdPerHour: 12}
		case "flink":
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 0.38, MsPerIOUnit: 0.35, MsPerNetUnit: 1.1, MsPerFixed: 3, UsdPerHour: 10}
		case "relstore":
			// Single node with limited workers; indexes make filters cheap.
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 0.5, MsPerIOUnit: 0.6, MsPerNetUnit: 1.5, MsPerFixed: 1, UsdPerHour: 2}
		case "pregel":
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 0.3, MsPerIOUnit: 0.4, MsPerNetUnit: 1.0, MsPerFixed: 3, UsdPerHour: 8}
		case "graphmem":
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 0.8, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1, UsdPerHour: 0.5}
		default:
			ct.Platforms[p] = PlatformUnitCosts{MsPerCPUUnit: 1, MsPerIOUnit: 1, MsPerNetUnit: 1, MsPerFixed: 1}
		}
	}
	return ct
}

// defaultParamsFor derives operator parameters from the cost key's suffix
// when no learned parameters exist. Keys follow "<platform>.<opname>".
func defaultParamsFor(costKey string) OpCostParams {
	name := costKey
	if i := strings.IndexByte(costKey, '.'); i >= 0 {
		name = costKey[i+1:]
	}
	switch {
	case strings.Contains(name, "source") || strings.Contains(name, "scan"):
		return OpCostParams{CPUPerQuantum: 0.0002, IOPerQuantum: 0.0006, FixedOverhead: 1}
	case strings.Contains(name, "sink") || strings.Contains(name, "fetch"):
		return OpCostParams{CPUPerQuantum: 0.0002, IOPerQuantum: 0.0004, FixedOverhead: 0.5}
	case strings.Contains(name, "iejoin"):
		// Sort-based: dominated by the n log n sort, modelled as a higher
		// per-quantum factor.
		return OpCostParams{CPUPerQuantum: 0.004, FixedOverhead: 1}
	case strings.Contains(name, "join"):
		return OpCostParams{CPUPerQuantum: 0.0018, NetPerQuantum: 0.0004, FixedOverhead: 1}
	case strings.Contains(name, "cartesian"):
		return OpCostParams{CPUPerQuantum: 0.01, FixedOverhead: 1}
	case strings.Contains(name, "reduce-by"), strings.Contains(name, "group"), strings.Contains(name, "agg"), strings.Contains(name, "distinct"):
		return OpCostParams{CPUPerQuantum: 0.0014, NetPerQuantum: 0.0003, FixedOverhead: 1}
	case strings.Contains(name, "sort"):
		return OpCostParams{CPUPerQuantum: 0.002, FixedOverhead: 1}
	case strings.Contains(name, "pagerank"):
		return OpCostParams{CPUPerQuantum: 0.004, NetPerQuantum: 0.001, FixedOverhead: 2}
	case strings.Contains(name, "sample"):
		return OpCostParams{CPUPerQuantum: 0.0004, FixedOverhead: 0.5}
	case strings.Contains(name, "filter"):
		return OpCostParams{CPUPerQuantum: 0.0004, FixedOverhead: 0.2}
	case strings.Contains(name, "flatmap"):
		return OpCostParams{CPUPerQuantum: 0.0012, FixedOverhead: 0.2}
	case strings.Contains(name, "count"):
		return OpCostParams{CPUPerQuantum: 0.0001, FixedOverhead: 0.2}
	case strings.Contains(name, "cache"):
		return OpCostParams{CPUPerQuantum: 0.0003, FixedOverhead: 0.3}
	default: // map and friends
		return OpCostParams{CPUPerQuantum: 0.0006, FixedOverhead: 0.2}
	}
}
