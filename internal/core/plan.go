package core

import (
	"fmt"
	"slices"
	"strings"
)

// Plan is a RheemPlan: a directed dataflow graph of platform-agnostic
// operators. Quanta flow from source operators to sink operators. Loop
// operators nest a body Plan; the body consumes the loop-carried value
// through LoopInput (a CollectionSource placeholder) and yields the next
// value at LoopOutput.
type Plan struct {
	Name string

	ops    []*Operator
	nextID int

	// LoopInput/LoopOutput designate a loop body's carried-value endpoints.
	// They are nil for top-level plans.
	LoopInput  *Operator
	LoopOutput *Operator

	edges []PlanEdge
}

// PlanEdge is a dataflow edge of the plan, connecting an output of From to
// the To operator's input port ToPort. Broadcast edges deliver the complete
// producer output as side data rather than as the main dataflow.
type PlanEdge struct {
	From, To  *Operator
	ToPort    int
	Broadcast bool
}

// NewPlan creates an empty plan.
func NewPlan(name string) *Plan { return &Plan{Name: name} }

// Operators returns the plan's operators in insertion order.
func (p *Plan) Operators() []*Operator { return p.ops }

// Edges returns the plan's dataflow edges.
func (p *Plan) Edges() []PlanEdge { return p.edges }

// Add inserts an operator into the plan and assigns it an ID.
func (p *Plan) Add(o *Operator) *Operator {
	p.nextID++
	o.ID = p.nextID
	p.ops = append(p.ops, o)
	return o
}

// NewOperator creates, adds, and returns an operator of the given kind.
func (p *Plan) NewOperator(k Kind, label string) *Operator {
	return p.Add(&Operator{Kind: k, Label: label})
}

// Connect wires from's output to to's input port.
func (p *Plan) Connect(from, to *Operator, toPort int) {
	p.edges = append(p.edges, PlanEdge{From: from, To: to, ToPort: toPort})
	for len(to.inputs) <= toPort {
		to.inputs = append(to.inputs, nil)
	}
	to.inputs[toPort] = from
	from.outputs = append(from.outputs, to)
}

// Broadcast wires from's complete output into to as broadcast side input.
func (p *Plan) Broadcast(from, to *Operator) {
	p.edges = append(p.edges, PlanEdge{From: from, To: to, Broadcast: true})
	to.broadcasts = append(to.broadcasts, from)
	from.outputs = append(from.outputs, to)
}

// RewireInput redirects to's input port to a different producer, updating
// the edge list and both operators' adjacency. The old producer keeps any
// other edges it has. newFrom must already be part of the plan.
func (p *Plan) RewireInput(to *Operator, port int, newFrom *Operator) {
	if port >= len(to.inputs) || to.inputs[port] == nil {
		p.Connect(newFrom, to, port)
		return
	}
	old := to.inputs[port]
	to.inputs[port] = newFrom
	for i, e := range p.edges {
		if e.To == to && e.ToPort == port && e.From == old && !e.Broadcast {
			p.edges[i].From = newFrom
			break
		}
	}
	for i, out := range old.outputs {
		if out == to {
			old.outputs = append(old.outputs[:i], old.outputs[i+1:]...)
			break
		}
	}
	newFrom.outputs = append(newFrom.outputs, to)
}

// RemoveUnreachable drops every operator (and its edges) from which no sink
// or loop output can be reached, following dataflow and broadcast edges.
// It returns the removed operators. Used after cache-scan substitution to
// prune subtrees whose results now come from the cache.
func (p *Plan) RemoveUnreachable() []*Operator {
	keep := make(map[*Operator]bool, len(p.ops))
	var mark func(o *Operator)
	mark = func(o *Operator) {
		if o == nil || keep[o] {
			return
		}
		keep[o] = true
		for _, in := range o.inputs {
			mark(in)
		}
		for _, bc := range o.broadcasts {
			mark(bc)
		}
		// A loop body may reference outer-plan operators; they must survive.
		for _, ref := range o.OuterRefs() {
			mark(ref.OuterRef)
		}
	}
	for _, o := range p.ops {
		if o.Kind.IsSink() {
			mark(o)
		}
	}
	mark(p.LoopOutput)
	var removed []*Operator
	kept := p.ops[:0]
	for _, o := range p.ops {
		if keep[o] {
			kept = append(kept, o)
		} else {
			removed = append(removed, o)
		}
	}
	p.ops = kept
	if len(removed) == 0 {
		return nil
	}
	edges := p.edges[:0]
	for _, e := range p.edges {
		if keep[e.From] && keep[e.To] {
			edges = append(edges, e)
		}
	}
	p.edges = edges
	for _, o := range p.ops {
		outs := o.outputs[:0]
		for _, out := range o.outputs {
			if keep[out] {
				outs = append(outs, out)
			}
		}
		o.outputs = outs
	}
	return removed
}

// Chain connects a linear sequence of operators on port 0 and returns the
// last one, a convenience for pipeline construction.
func (p *Plan) Chain(ops ...*Operator) *Operator {
	for i := 1; i < len(ops); i++ {
		p.Connect(ops[i-1], ops[i], 0)
	}
	return ops[len(ops)-1]
}

// Sources returns the plan's source operators.
func (p *Plan) Sources() []*Operator {
	var out []*Operator
	for _, o := range p.ops {
		if p.inArity(o) == 0 {
			out = append(out, o)
		}
	}
	return out
}

// Sinks returns the plan's sink operators.
func (p *Plan) Sinks() []*Operator {
	var out []*Operator
	for _, o := range p.ops {
		if o.Kind.IsSink() {
			out = append(out, o)
		}
	}
	return out
}

func (p *Plan) inArity(o *Operator) int { return InArityOf(o) }

// TopoOrder returns the operators in a topological order of the dataflow
// (broadcast edges included as dependencies). It returns an error if the
// plan has a cycle; cycles are only legal inside loop bodies, which are
// nested plans and therefore acyclic at each level.
func (p *Plan) TopoOrder() ([]*Operator, error) {
	indeg := make(map[*Operator]int, len(p.ops))
	adj := make(map[*Operator][]*Operator, len(p.ops))
	for _, o := range p.ops {
		indeg[o] = 0
	}
	for _, e := range p.edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	queue := make([]*Operator, 0, len(p.ops))
	for _, o := range p.ops { // deterministic: insertion order
		if indeg[o] == 0 {
			queue = append(queue, o)
		}
	}
	order := make([]*Operator, 0, len(p.ops))
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		order = append(order, o)
		for _, n := range adj[o] {
			indeg[n]--
			if indeg[n] == 0 {
				queue = append(queue, n)
			}
		}
	}
	if len(order) != len(p.ops) {
		return nil, fmt.Errorf("core: plan %q contains a cycle (%d of %d operators ordered)", p.Name, len(order), len(p.ops))
	}
	return order, nil
}

// Validate checks structural well-formedness: every input port connected,
// at least one source and one sink, acyclicity, loop bodies recursively
// valid with designated loop endpoints.
func (p *Plan) Validate() error {
	if len(p.ops) == 0 {
		return fmt.Errorf("core: plan %q is empty", p.Name)
	}
	if _, err := p.TopoOrder(); err != nil {
		return err
	}
	hasSink := false
	for _, o := range p.ops {
		in := p.inArity(o)
		if o.OuterRef != nil {
			in = 0 // reads an operator of the enclosing plan, not a port
		}
		if len(o.inputs) < in {
			return fmt.Errorf("core: %s has %d of %d inputs connected", o, len(o.inputs), in)
		}
		for i := 0; i < in; i++ {
			if o.inputs[i] == nil {
				return fmt.Errorf("core: %s input port %d is unconnected", o, i)
			}
		}
		if o.Kind.IsSink() {
			hasSink = true
		}
		if o.Kind.IsLoop() {
			if o.Body == nil {
				return fmt.Errorf("core: loop %s has no body", o)
			}
			if o.Body.LoopInput == nil || o.Body.LoopOutput == nil {
				return fmt.Errorf("core: loop %s body lacks designated loop input/output", o)
			}
			if o.Kind == KindRepeat && o.Params.Iterations <= 0 {
				return fmt.Errorf("core: repeat %s has no iteration count", o)
			}
			if err := o.Body.validateAsLoopBody(); err != nil {
				return fmt.Errorf("core: loop %s: %w", o, err)
			}
			for _, ref := range o.OuterRefs() {
				if !slices.Contains(p.ops, ref.OuterRef) {
					return fmt.Errorf("core: loop %s: %s reads %s, which is not an operator of the enclosing plan %q (a body reads the plan around it; a reference cannot skip a nesting level)", o, ref, ref.OuterRef, p.Name)
				}
			}
		}
	}
	if !hasSink && p.LoopOutput == nil {
		return fmt.Errorf("core: plan %q has no sink", p.Name)
	}
	if len(p.Sources()) == 0 && p.LoopInput == nil {
		return fmt.Errorf("core: plan %q has no source", p.Name)
	}
	return nil
}

// validateAsLoopBody validates a loop body: a plan in its own right (its
// loops included) whose designated endpoints are operators of it and which
// may use its LoopOutput as the (sole) sink.
func (p *Plan) validateAsLoopBody() error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !slices.Contains(p.ops, p.LoopOutput) {
		return fmt.Errorf("loop output %s not part of body", p.LoopOutput)
	}
	if !slices.Contains(p.ops, p.LoopInput) {
		return fmt.Errorf("loop input %s not part of body", p.LoopInput)
	}
	return nil
}

// String renders the plan as an indented operator/edge listing for
// debugging and the CLI --explain mode.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RheemPlan %q\n", p.Name)
	writePlan(&b, p, "  ")
	return b.String()
}

func writePlan(b *strings.Builder, p *Plan, indent string) {
	for _, o := range p.ops {
		fmt.Fprintf(b, "%s%s", indent, o)
		if len(o.inputs) > 0 {
			fmt.Fprintf(b, " <- ")
			for i, in := range o.inputs {
				if i > 0 {
					fmt.Fprintf(b, ", ")
				}
				fmt.Fprintf(b, "%s", in)
			}
		}
		for _, bc := range o.broadcasts {
			fmt.Fprintf(b, " <~broadcast~ %s", bc)
		}
		fmt.Fprintln(b)
		if o.Body != nil {
			fmt.Fprintf(b, "%s  body (in=%s, out=%s):\n", indent, o.Body.LoopInput, o.Body.LoopOutput)
			writePlan(b, o.Body, indent+"    ")
		}
	}
}
