package core

import (
	"fmt"
	"sort"
)

// ExecOpTemplate describes an execution operator: a platform-specific
// implementation of (part of) a logical operator. Templates are what
// operator mappings produce and what the cost model prices.
type ExecOpTemplate struct {
	Name string       // unique, e.g. "spark.reduce-by"; also its cost table key
	Kind Kind         // logical kind this step contributes to implementing
	In   []string     // acceptable input channel names, preference order, per port 0
	Out  string       // produced output channel name
	Cost OpCostParams // declared resource use, priced by its platform's unit costs
}

// OpCostParams are the learnable resource-usage parameters of one execution
// operator: the paper's r^m_o functions, affine in the input cardinality.
// Units are abstract resource units; the platform's unit costs convert them
// to milliseconds.
type OpCostParams struct {
	CPUPerQuantum float64 `json:"cpu_per_quantum"` // the paper's alpha + beta: CPU units per input quantum, UDF included
	IOPerQuantum  float64 `json:"io_per_quantum"`  // disk I/O units per input quantum
	NetPerQuantum float64 `json:"net_per_quantum"` // network units per input quantum
	FixedOverhead float64 `json:"fixed_overhead"`  // the paper's delta: start-up/scheduling units per invocation
}

// Alternative is one way to implement a logical operator: a sequence of
// execution operators on a single platform. A 1-to-1 mapping has one step;
// a 1-to-n mapping (e.g. Reduce -> GroupBy + Map on a platform without a
// native global reduce) has several. Every placed operator carries its own
// alternative: consecutive operators fuse at execution time
// (driverutil.PlanFusion), never through a mapping.
type Alternative struct {
	Platform string
	Steps    []ExecOpTemplate
}

// InChannels returns the acceptable input channels of the alternative (its
// first step's).
func (a Alternative) InChannels() []string {
	if len(a.Steps) == 0 {
		return nil
	}
	return a.Steps[0].In
}

// OutChannel returns the output channel of the alternative (its last
// step's).
func (a Alternative) OutChannel() string {
	if len(a.Steps) == 0 {
		return ""
	}
	return a.Steps[len(a.Steps)-1].Out
}

func (a Alternative) String() string {
	if len(a.Steps) == 1 {
		return a.Steps[0].Name
	}
	s := a.Platform + "["
	for i, st := range a.Steps {
		if i > 0 {
			s += "+"
		}
		s += st.Name
	}
	return s + "]"
}

// MappingRegistry holds all operator mappings known to the system. Platform
// packages register their execution operators here during setup; the
// optimizer's inflation phase consults it.
type MappingRegistry struct {
	direct map[Kind][]Alternative
}

// NewMappingRegistry creates an empty registry.
func NewMappingRegistry() *MappingRegistry {
	return &MappingRegistry{direct: map[Kind][]Alternative{}}
}

// Register adds an alternative implementation for a logical kind.
func (r *MappingRegistry) Register(k Kind, alt Alternative) {
	r.direct[k] = append(r.direct[k], alt)
}

// Alternatives returns the registered alternatives for a logical operator,
// honouring its TargetPlatform pin.
func (r *MappingRegistry) Alternatives(op *Operator) []Alternative {
	var alts []Alternative
	for _, a := range r.direct[op.Kind] {
		if op.TargetPlatform != "" && a.Platform != op.TargetPlatform {
			continue
		}
		alts = append(alts, a)
	}
	return alts
}

// Platforms returns the names of all platforms that registered at least one
// alternative, sorted.
func (r *MappingRegistry) Platforms() []string {
	set := map[string]bool{}
	for _, alts := range r.direct {
		for _, a := range alts {
			set[a.Platform] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Validate reports kinds that have no registered implementation on any
// platform, which would make plans containing them unexecutable.
func (r *MappingRegistry) Validate(p *Plan) error {
	for _, op := range p.Operators() {
		if op.Kind.IsLoop() {
			if err := r.Validate(op.Body); err != nil {
				return err
			}
			continue
		}
		if len(r.Alternatives(op)) == 0 {
			return fmt.Errorf("core: no platform implements %s", op)
		}
	}
	return nil
}
