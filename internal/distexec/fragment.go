package distexec

import (
	"bytes"
	"fmt"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// The fragment wire format: a self-contained, JSON-enveloped description of
// one stage that a peer running the same binary can rebuild and execute.
// Operators are serialized structurally (kind, label, scalar params,
// topology); UDFs travel as process-global symbol references resolved
// against the receiving peer's registration table; bulk values (collection
// payloads, predicate constants, channel data) are RQB1-encoded byte
// strings, so the binary codec — not JSON — defines their representation.
//
// Wire operator ids are the origin plan's operator ids: unique within the
// plan, stable across the request/response pair, and meaningless outside
// it.

// Fragment is one shipped stage.
type Fragment struct {
	Frag     string `json:"frag"`     // fleet-unique fragment id (trace store key)
	Origin   string `json:"origin"`   // dispatching peer's advertise address
	StageID  int    `json:"stage_id"` // origin stage id (diagnostics)
	Platform string `json:"platform"`

	Ops []opWire `json:"ops"` // the stage's operators, topological order
	// Stubs are external producers feeding the stage: they are rebuilt as
	// plan vertices so edge topology and broadcast labels survive, but they
	// never execute — their outputs arrive as Inputs.
	Stubs     []opWire    `json:"stubs,omitempty"`
	Edges     []edgeWire  `json:"edges"`
	Inputs    []inputWire `json:"inputs,omitempty"`
	Terminals []int       `json:"terminals"` // wire ids of TerminalOuts
}

type opWire struct {
	ID             int        `json:"id"`
	Kind           string     `json:"kind"`
	Label          string     `json:"label,omitempty"`
	Selectivity    float64    `json:"selectivity,omitempty"`
	TargetPlatform string     `json:"target_platform,omitempty"`
	Params         paramsWire `json:"params"`
	// UDFs maps role ("map", "reduce", ...) to a registered function symbol.
	UDFs map[string]string `json:"udfs,omitempty"`
}

type edgeWire struct {
	From      int  `json:"from"`
	To        int  `json:"to"`
	Port      int  `json:"port"`
	Broadcast bool `json:"broadcast,omitempty"`
}

// inputWire carries one boundary input channel as inline RQB1 bytes.
type inputWire struct {
	Consumer  int    `json:"consumer"`
	Port      int    `json:"port"`
	Producer  int    `json:"producer"`
	Broadcast bool   `json:"broadcast,omitempty"`
	Card      int64  `json:"card"`
	Inline    []byte `json:"inline"`
}

// paramsWire mirrors core.Params with codec-encoded bulk fields.
type paramsWire struct {
	Path           string    `json:"path,omitempty"`
	Table          string    `json:"table,omitempty"`
	Store          string    `json:"store,omitempty"`
	Columns        []int     `json:"columns,omitempty"`
	HasCollection  bool      `json:"has_collection,omitempty"`
	Collection     []byte    `json:"collection,omitempty"` // RQB1 stream
	SampleSize     int       `json:"sample_size,omitempty"`
	SampleFraction float64   `json:"sample_fraction,omitempty"`
	SampleMethod   string    `json:"sample_method,omitempty"`
	Iterations     int       `json:"iterations,omitempty"`
	MaxIterations  int       `json:"max_iterations,omitempty"`
	DampingFactor  float64   `json:"damping_factor,omitempty"`
	Seed           int64     `json:"seed,omitempty"`
	IEOp1          int       `json:"ie_op1,omitempty"`
	IEOp2          int       `json:"ie_op2,omitempty"`
	Where          *predWire `json:"where,omitempty"`
}

type predWire struct {
	Col   int    `json:"col"`
	Op    int    `json:"op"`
	Value []byte `json:"value"` // RQB1 quantum
}

// shippable returns the symbol of a UDF and whether it resolves, in this
// process's symbol table, to the very function the plan carries — the value
// a peer running the same binary rebinds.
func shippable(fn any) (string, bool) {
	sym := core.FuncSymbol(fn)
	got, ok := core.LookupUDFSymbol(sym)
	return sym, ok && core.FuncEqual(got, fn)
}

// Fragmentable reports why a stage cannot be shipped to a peer ("" when it
// can). Each reason doubles as the pinned_local metric label.
func Fragmentable(s *core.Stage) string {
	if s.Platform == "" {
		return "loop" // loop pseudo-stage, executed by the executor itself
	}
	if s.ExecPlan == nil || s.ExecPlan.Plan == nil {
		return "no-plan"
	}
	plan := s.ExecPlan.Plan
	for _, op := range s.Ops {
		switch {
		case op.Kind.IsLoop() || op.Body != nil:
			return "loop"
		case op.OuterRef != nil:
			return "outer-ref"
		case op == plan.LoopInput:
			return "loop-input"
		case op.Kind == core.KindCollectionSource && op.Params.Collection == nil:
			// A placeholder source (loop input / outer reference), not a
			// literal empty collection.
			return "placeholder-source"
		case op.Kind == core.KindTableSource:
			// Relational stores are process-local state.
			return "table-source"
		case op.Kind == core.KindTextFileSink:
			// The sink file must appear where the client expects it: on the
			// origin.
			return "file-sink"
		case op.Kind == core.KindTextFileSource && driverutil.LocalTextPath(op.Params.Path):
			// A local (non-DFS) file the remote peer cannot see.
			return "local-file"
		}
		if s.Sniffers[op] != nil {
			// Exploratory-mode sniffers are process-local callbacks.
			return "sniffed"
		}
		for _, r := range core.UDFRoles {
			if fn := r.Get(&op.UDF); fn != nil {
				if _, ok := shippable(fn); !ok {
					// Unregistered (or capture-shadowed) function: the peer
					// cannot resolve an identical value.
					return "udf"
				}
			}
		}
	}
	return ""
}

// buildFragment serializes the stage's operator subgraph. Inputs, ids and
// addresses are filled in by the dispatcher. The returned map resolves
// wire ids back to origin operators (for outputs and stats).
func buildFragment(s *core.Stage) (*Fragment, map[int]*core.Operator, error) {
	frag := &Fragment{StageID: s.ID, Platform: s.Platform}
	byWire := map[int]*core.Operator{}
	stubbed := map[*core.Operator]bool{}
	for _, op := range s.Ops {
		w, err := encodeOp(op)
		if err != nil {
			return nil, nil, fmt.Errorf("distexec: %s: %w", op, err)
		}
		frag.Ops = append(frag.Ops, w)
		byWire[op.ID] = op
	}
	addStub := func(producer *core.Operator) {
		if s.Contains(producer) || stubbed[producer] {
			return
		}
		stubbed[producer] = true
		// Stubs carry topology only: kind and label (broadcast contexts are
		// keyed by producer label), never params or UDFs.
		frag.Stubs = append(frag.Stubs, opWire{
			ID: producer.ID, Kind: string(producer.Kind), Label: producer.Label,
		})
		byWire[producer.ID] = producer
	}
	for _, op := range s.Ops {
		for port, producer := range op.Inputs() {
			if producer == nil {
				continue
			}
			addStub(producer)
			frag.Edges = append(frag.Edges, edgeWire{From: producer.ID, To: op.ID, Port: port})
		}
		for _, producer := range op.Broadcasts() {
			addStub(producer)
			frag.Edges = append(frag.Edges, edgeWire{From: producer.ID, To: op.ID, Broadcast: true})
		}
	}
	for _, op := range s.TerminalOuts {
		frag.Terminals = append(frag.Terminals, op.ID)
	}
	return frag, byWire, nil
}

func encodeOp(op *core.Operator) (opWire, error) {
	w := opWire{
		ID:             op.ID,
		Kind:           string(op.Kind),
		Label:          op.Label,
		Selectivity:    op.Selectivity,
		TargetPlatform: op.TargetPlatform,
	}
	p, err := encodeParams(op.Params)
	if err != nil {
		return w, err
	}
	w.Params = p
	for _, r := range core.UDFRoles {
		fn := r.Get(&op.UDF)
		if fn == nil {
			continue
		}
		sym, ok := shippable(fn)
		if !ok {
			return w, fmt.Errorf("UDF role %s (%s) is not registered for shipping", r.Name, sym)
		}
		if w.UDFs == nil {
			w.UDFs = map[string]string{}
		}
		w.UDFs[r.Name] = sym
	}
	return w, nil
}

func encodeParams(p core.Params) (paramsWire, error) {
	w := paramsWire{
		Path: p.Path, Table: p.Table, Store: p.Store, Columns: p.Columns,
		SampleSize: p.SampleSize, SampleFraction: p.SampleFraction,
		SampleMethod: p.SampleMethod, Iterations: p.Iterations,
		MaxIterations: p.MaxIterations, DampingFactor: p.DampingFactor,
		Seed: p.Seed, IEOp1: int(p.IEOp1), IEOp2: int(p.IEOp2),
	}
	if p.Collection != nil {
		var buf bytes.Buffer
		if err := core.WriteQuantaStream(&buf, p.Collection); err != nil {
			return w, fmt.Errorf("encoding collection: %w", err)
		}
		w.HasCollection = true
		w.Collection = buf.Bytes()
	}
	if p.Where != nil {
		val, err := core.EncodeQuantumBinary(p.Where.Value)
		if err != nil {
			return w, fmt.Errorf("encoding predicate value: %w", err)
		}
		w.Where = &predWire{Col: p.Where.Col, Op: int(p.Where.Op), Value: val}
	}
	return w, nil
}

// decodeFragment rebuilds the stage on the receiving peer: a fresh plan
// with the fragment's operators and stubs, the stage over the real
// operators, and a wire-id index for binding inputs and reporting outputs.
// The fragment is checked against the operator table first: every op and
// stub is of a kind the table declares, and every edge and input lands on a
// port its consumer's kind has.
func decodeFragment(frag *Fragment) (*core.Stage, map[int]*core.Operator, error) {
	plan := core.NewPlan("fragment-" + frag.Frag)
	byWire := map[int]*core.Operator{}
	ops := make([]*core.Operator, 0, len(frag.Ops))
	for _, w := range frag.Ops {
		op, err := decodeOp(plan, w)
		if err != nil {
			return nil, nil, err
		}
		byWire[w.ID] = op
		ops = append(ops, op)
	}
	for _, w := range frag.Stubs {
		if byWire[w.ID] != nil {
			return nil, nil, fmt.Errorf("distexec: duplicate wire op id %d", w.ID)
		}
		if !core.Kind(w.Kind).Known() {
			return nil, nil, fmt.Errorf("distexec: stub %d: unknown operator kind %q", w.ID, w.Kind)
		}
		byWire[w.ID] = plan.NewOperator(core.Kind(w.Kind), w.Label)
	}
	for _, e := range frag.Edges {
		from, to := byWire[e.From], byWire[e.To]
		if from == nil || to == nil {
			return nil, nil, fmt.Errorf("distexec: edge %d->%d references unknown op", e.From, e.To)
		}
		if err := checkPort(to, e.Port, e.Broadcast); err != nil {
			return nil, nil, err
		}
		if e.Broadcast {
			plan.Broadcast(from, to)
		} else {
			plan.Connect(from, to, e.Port)
		}
	}
	stage := &core.Stage{
		ID:       frag.StageID,
		Platform: frag.Platform,
		Ops:      ops,
		ExecPlan: &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
	}
	for _, id := range frag.Terminals {
		op := byWire[id]
		if op == nil {
			return nil, nil, fmt.Errorf("distexec: terminal references unknown op %d", id)
		}
		stage.TerminalOuts = append(stage.TerminalOuts, op)
	}
	for _, iw := range frag.Inputs {
		consumer := byWire[iw.Consumer]
		if byWire[iw.Producer] == nil || consumer == nil {
			return nil, nil, fmt.Errorf("distexec: input references unknown ops %d->%d", iw.Producer, iw.Consumer)
		}
		if err := checkPort(consumer, iw.Port, iw.Broadcast); err != nil {
			return nil, nil, err
		}
	}
	return stage, byWire, nil
}

// checkPort rejects a dataflow edge into a port op's kind does not have (a
// broadcast edge names no port).
func checkPort(op *core.Operator, port int, broadcast bool) error {
	if !broadcast && (port < 0 || port >= op.Kind.InArity()) {
		return fmt.Errorf("distexec: %s has no input port %d", op, port)
	}
	return nil
}

func decodeOp(plan *core.Plan, w opWire) (*core.Operator, error) {
	if !core.Kind(w.Kind).Known() {
		return nil, fmt.Errorf("distexec: op %d: unknown operator kind %q", w.ID, w.Kind)
	}
	op := plan.NewOperator(core.Kind(w.Kind), w.Label)
	op.Selectivity = w.Selectivity
	op.TargetPlatform = w.TargetPlatform
	p, err := decodeParams(w.Params)
	if err != nil {
		return nil, fmt.Errorf("distexec: op %d (%s): %w", w.ID, w.Kind, err)
	}
	op.Params = p
	bound := 0
	for _, r := range core.UDFRoles {
		sym, ok := w.UDFs[r.Name]
		if !ok {
			continue
		}
		fn, ok := core.LookupUDFSymbol(sym)
		if !ok {
			return nil, fmt.Errorf("distexec: op %d (%s): UDF symbol %q is not registered on this peer", w.ID, w.Kind, sym)
		}
		if !r.Set(&op.UDF, fn) {
			return nil, fmt.Errorf("distexec: op %d (%s): UDF role %q resolved to incompatible type %T", w.ID, w.Kind, r.Name, fn)
		}
		bound++
	}
	if bound != len(w.UDFs) {
		return nil, fmt.Errorf("distexec: op %d (%s): %d UDFs under unknown roles", w.ID, w.Kind, len(w.UDFs)-bound)
	}
	return op, nil
}

func decodeParams(w paramsWire) (core.Params, error) {
	p := core.Params{
		Path: w.Path, Table: w.Table, Store: w.Store, Columns: w.Columns,
		SampleSize: w.SampleSize, SampleFraction: w.SampleFraction,
		SampleMethod: w.SampleMethod, Iterations: w.Iterations,
		MaxIterations: w.MaxIterations, DampingFactor: w.DampingFactor,
		Seed: w.Seed, IEOp1: core.Inequality(w.IEOp1), IEOp2: core.Inequality(w.IEOp2),
	}
	if w.HasCollection {
		data, err := core.ReadQuantaStream(bytes.NewReader(w.Collection))
		if err != nil {
			return p, fmt.Errorf("decoding collection: %w", err)
		}
		if data == nil {
			// nil Collection means "placeholder source"; an empty shipped
			// collection must stay an empty literal.
			data = []any{}
		}
		p.Collection = data
	}
	if w.Where != nil {
		val, err := core.DecodeQuantumBinary(w.Where.Value)
		if err != nil {
			return p, fmt.Errorf("decoding predicate value: %w", err)
		}
		p.Where = &core.Predicate{Col: w.Where.Col, Op: core.PredOp(w.Where.Op), Value: val}
	}
	return p, nil
}
