package latin

import (
	"fmt"

	"rheem/internal/core"
)

// Registry holds the Go functions and collections a script can reference by
// name — the counterpart of the paper's UDF imports. Registration is
// namespaced by role so one name can serve as both a key extractor and a
// reducer without ambiguity.
type Registry struct {
	maps     map[string]mapEntry
	flatMaps map[string]func(any) []any
	preds    map[string]func(any) bool
	reduces  map[string]func(a, b any) any
	keys     map[string]func(any) any
	conds    map[string]func(round int, current []any) bool
	colls    map[string]collEntry
}

// collEntry is a registered collection with the digest of its content, kept
// as one value so a reader never sees one without the other.
type collEntry struct {
	data   []any
	digest string // core.CollectionDigest(data); "" when data holds an un-encodable quantum
}

type mapEntry struct {
	open func(core.BroadcastCtx)
	fn   func(any) any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		maps:     map[string]mapEntry{},
		flatMaps: map[string]func(any) []any{},
		preds:    map[string]func(any) bool{},
		reduces:  map[string]func(a, b any) any{},
		keys:     map[string]func(any) any{},
		conds:    map[string]func(round int, current []any) bool{},
		colls:    map[string]collEntry{},
	}
}

// RegisterMap registers a map UDF.
func (r *Registry) RegisterMap(name string, fn func(any) any) {
	r.maps[name] = mapEntry{fn: fn}
}

// RegisterMapCtx registers a map UDF with a broadcast-consuming open hook.
func (r *Registry) RegisterMapCtx(name string, open func(core.BroadcastCtx), fn func(any) any) {
	r.maps[name] = mapEntry{open: open, fn: fn}
}

// RegisterFlatMap registers a flatmap UDF.
func (r *Registry) RegisterFlatMap(name string, fn func(any) []any) {
	r.flatMaps[name] = fn
}

// RegisterPred registers a filter predicate.
func (r *Registry) RegisterPred(name string, fn func(any) bool) {
	r.preds[name] = fn
}

// RegisterReduce registers a binary reducer.
func (r *Registry) RegisterReduce(name string, fn func(a, b any) any) {
	r.reduces[name] = fn
}

// RegisterKey registers a key extractor.
func (r *Registry) RegisterKey(name string, fn func(any) any) {
	r.keys[name] = fn
}

// RegisterCollection registers a named input collection. To the result cache
// a registered collection is a named source like a file or a table, except
// that its identity is its content: the content is hashed here, once, and
// every plan compiled from the name carries that digest in its fingerprints.
// The slice is therefore immutable from this call on — a write to it would
// leave the digest, and every cached result keyed on it, describing data that
// no longer exists. To replace the data, register the name again: the new
// content gets a new digest and jobs compiled afterwards miss the old
// results. A collection holding a quantum the codec cannot encode is
// registered without a digest and its plans are not cached.
func (r *Registry) RegisterCollection(name string, data []any) {
	// An error means "no digest": the collection stays usable, uncached.
	digest, _ := core.CollectionDigest(data)
	r.colls[name] = collEntry{data: data, digest: digest}
}

// RegisterCond registers a do-while continuation condition: invoked before
// each round with the round number and the current loop value; returning
// false stops the loop.
func (r *Registry) RegisterCond(name string, fn func(round int, current []any) bool) {
	r.conds[name] = fn
}

// UnknownSinkError reports a store/collect statement referencing a dataset
// name the script never defined — a client mistake, distinguishable from
// other compile errors so callers (restapi) can map it to 400 rather than
// a server-side failure.
type UnknownSinkError struct {
	Name string
	Line int
}

func (e *UnknownSinkError) Error() string {
	return fmt.Sprintf("line %d: store/collect references unknown dataset %q", e.Line, e.Name)
}

// Compiled is the result of compiling a script: the plan plus the sink
// operators, keyed by the name each store/collect statement referenced.
type Compiled struct {
	Plan  *core.Plan
	Sinks map[string]*core.Operator
}

// Compile parses and compiles a script against the registry.
func Compile(src string, reg *Registry) (*Compiled, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileScript(script, reg)
}

// CompileScript compiles a parsed script.
func CompileScript(script *Script, reg *Registry) (*Compiled, error) {
	plan := core.NewPlan("latin")
	c := &compiler{reg: reg}
	env := scope{vars: map[string]*core.Operator{}}
	sinks := map[string]*core.Operator{}
	for _, s := range script.Stmts {
		if s.Expr == nil { // store / collect
			src, ok := env.vars[s.Store]
			if !ok {
				return nil, &UnknownSinkError{Name: s.Store, Line: s.Line}
			}
			var sink *core.Operator
			if s.Target == "" {
				sink = plan.NewOperator(core.KindCollectionSink, s.Store)
			} else {
				sink = plan.NewOperator(core.KindTextFileSink, s.Store)
				sink.Params.Path = s.Target
			}
			plan.Connect(src, sink, 0)
			sinks[s.Store] = sink
			continue
		}
		op, err := c.compileExpr(plan, &env, s.Expr)
		if err != nil {
			return nil, err
		}
		env.vars[s.Name] = op
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("latin: script has no store/collect statement")
	}
	return &Compiled{Plan: plan, Sinks: sinks}, nil
}

type compiler struct {
	reg *Registry
}

// scope resolves dataset names; loop bodies chain to the outer scope and
// materialize outer references as OuterRef placeholders.
type scope struct {
	vars  map[string]*core.Operator
	outer *scope
	// plan is the nested body plan for loop scopes.
	plan *core.Plan
	// refs caches OuterRef placeholders per outer operator.
	refs map[*core.Operator]*core.Operator
}

// resolve finds name, importing it as an OuterRef when it lives in an
// enclosing scope of a loop body.
func (s *scope) resolve(plan *core.Plan, name string) (*core.Operator, bool) {
	if op, ok := s.vars[name]; ok {
		return op, true
	}
	if s.outer == nil {
		return nil, false
	}
	outerOp, ok := s.outer.resolve(s.outer.plan, name)
	if !ok {
		return nil, false
	}
	if ref, ok := s.refs[outerOp]; ok {
		return ref, true
	}
	ref := plan.NewOperator(core.KindCollectionSource, name)
	ref.OuterRef = outerOp
	s.refs[outerOp] = ref
	return ref, true
}

func (c *compiler) compileExpr(plan *core.Plan, env *scope, e *Expr) (*core.Operator, error) {
	input := func(i int) (*core.Operator, error) {
		op, ok := env.resolve(plan, e.Args[i])
		if !ok {
			return nil, errf(e.Line, "unknown dataset %q", e.Args[i])
		}
		return op, nil
	}
	var op *core.Operator
	connect := func(k core.Kind, label string) error {
		op = plan.NewOperator(k, label)
		for i := 0; i < k.InArity(); i++ {
			in, err := input(i)
			if err != nil {
				return err
			}
			plan.Connect(in, op, i)
		}
		return nil
	}

	switch e.Op {
	case "load":
		op = plan.NewOperator(core.KindTextFileSource, "load")
		op.Params.Path = e.Path

	case "load-collection":
		coll, ok := c.reg.colls[e.Collection]
		if !ok {
			return nil, errf(e.Line, "unknown collection %q", e.Collection)
		}
		op = plan.NewOperator(core.KindCollectionSource, e.Collection)
		op.Params.Collection = coll.data
		op.Params.CollectionDigest = coll.digest

	case "load-table":
		op = plan.NewOperator(core.KindTableSource, e.Path)
		op.Params.Store = e.Store
		op.Params.Table = e.Path
		op.Params.Columns = e.Columns
		if e.Pred != nil {
			op.Params.Where = predOf(e.Pred)
		}

	case "map":
		me, ok := c.reg.maps[e.UDF]
		if !ok {
			return nil, errf(e.Line, "unknown map UDF %q", e.UDF)
		}
		if err := connect(core.KindMap, e.UDF); err != nil {
			return nil, err
		}
		op.UDF.Map = me.fn
		op.UDF.Open = me.open
		op.UDF.Names = udfNames(core.RoleMap.Name, e.UDF)

	case "flatmap":
		fn, ok := c.reg.flatMaps[e.UDF]
		if !ok {
			return nil, errf(e.Line, "unknown flatmap UDF %q", e.UDF)
		}
		if err := connect(core.KindFlatMap, e.UDF); err != nil {
			return nil, err
		}
		op.UDF.FlatMap = fn
		op.UDF.Names = udfNames(core.RoleFlatMap.Name, e.UDF)

	case "filter":
		if err := connect(core.KindFilter, e.UDF); err != nil {
			return nil, err
		}
		if e.Pred != nil {
			op.Params.Where = predOf(e.Pred)
		} else {
			fn, ok := c.reg.preds[e.UDF]
			if !ok {
				return nil, errf(e.Line, "unknown predicate UDF %q", e.UDF)
			}
			op.UDF.Pred = fn
			op.UDF.Names = udfNames(core.RolePred.Name, e.UDF)
		}

	case "reduce":
		fn, ok := c.reg.reduces[e.UDF]
		if !ok {
			return nil, errf(e.Line, "unknown reduce UDF %q", e.UDF)
		}
		if err := connect(core.KindReduce, e.UDF); err != nil {
			return nil, err
		}
		op.UDF.Reduce = fn
		op.UDF.Names = udfNames(core.RoleReduce.Name, e.UDF)

	case "reduceby":
		key, ok := c.reg.keys[e.KeyUDF]
		if !ok {
			return nil, errf(e.Line, "unknown key UDF %q", e.KeyUDF)
		}
		fn, ok := c.reg.reduces[e.UDF]
		if !ok {
			return nil, errf(e.Line, "unknown reduce UDF %q", e.UDF)
		}
		if err := connect(core.KindReduceBy, e.UDF); err != nil {
			return nil, err
		}
		op.UDF.Key = key
		op.UDF.Reduce = fn
		op.UDF.Names = udfNames(core.RoleKey.Name, e.KeyUDF, core.RoleReduce.Name, e.UDF)

	case "groupby":
		key, ok := c.reg.keys[e.KeyUDF]
		if !ok {
			return nil, errf(e.Line, "unknown key UDF %q", e.KeyUDF)
		}
		if err := connect(core.KindGroupBy, e.KeyUDF); err != nil {
			return nil, err
		}
		op.UDF.Key = key
		op.UDF.Names = udfNames(core.RoleKey.Name, e.KeyUDF)

	case "join":
		key, ok := c.reg.keys[e.KeyUDF]
		if !ok {
			return nil, errf(e.Line, "unknown key UDF %q", e.KeyUDF)
		}
		keyR, ok := c.reg.keys[e.KeyRightUDF]
		if !ok {
			return nil, errf(e.Line, "unknown key UDF %q", e.KeyRightUDF)
		}
		if err := connect(core.KindJoin, "join"); err != nil {
			return nil, err
		}
		op.UDF.Key = key
		op.UDF.KeyRight = keyR
		op.UDF.Names = udfNames(core.RoleKey.Name, e.KeyUDF, core.RoleKeyRight.Name, e.KeyRightUDF)

	case "union":
		if err := connect(core.KindUnion, "union"); err != nil {
			return nil, err
		}
	case "intersect":
		if err := connect(core.KindIntersect, "intersect"); err != nil {
			return nil, err
		}
	case "cartesian":
		if err := connect(core.KindCartesian, "cartesian"); err != nil {
			return nil, err
		}
	case "distinct":
		if err := connect(core.KindDistinct, "distinct"); err != nil {
			return nil, err
		}
	case "sort":
		if err := connect(core.KindSort, "sort"); err != nil {
			return nil, err
		}
	case "count":
		if err := connect(core.KindCount, "count"); err != nil {
			return nil, err
		}
	case "cache":
		if err := connect(core.KindCache, "cache"); err != nil {
			return nil, err
		}

	case "sample":
		if err := connect(core.KindSample, "sample"); err != nil {
			return nil, err
		}
		op.Params.SampleSize = int(e.Number)
		op.Params.SampleMethod = e.Method
		op.Params.Seed = e.Seed

	case "pagerank":
		if err := connect(core.KindPageRank, "pagerank"); err != nil {
			return nil, err
		}
		op.Params.Iterations = int(e.Number)

	case "repeat", "dowhile":
		return c.compileLoop(plan, env, e)

	default:
		return nil, errf(e.Line, "unsupported operator %q", e.Op)
	}

	if e.Platform != "" {
		op.TargetPlatform = e.Platform
	}
	if e.Selectivity > 0 {
		op.Selectivity = e.Selectivity
	}
	for _, b := range e.Broadcasts {
		src, ok := env.resolve(plan, b)
		if !ok {
			return nil, errf(e.Line, "unknown broadcast dataset %q", b)
		}
		plan.Broadcast(src, op)
	}
	return op, nil
}

// compileLoop compiles `repeat N over seed { ... }`: the body is a nested
// plan; within it the seed's name denotes the loop-carried value, outer
// names become OuterRef placeholders, and the body's final assignment to
// the seed's name becomes the next loop value.
func (c *compiler) compileLoop(plan *core.Plan, env *scope, e *Expr) (*core.Operator, error) {
	seedOp, ok := env.resolve(plan, e.Over)
	if !ok {
		return nil, errf(e.Line, "unknown loop seed %q", e.Over)
	}
	var loop *core.Operator
	if e.Op == "dowhile" {
		cond, ok := c.reg.conds[e.UDF]
		if !ok {
			return nil, errf(e.Line, "unknown condition UDF %q", e.UDF)
		}
		loop = plan.NewOperator(core.KindDoWhile, "dowhile")
		loop.Params.MaxIterations = int(e.Number)
		loop.UDF.Cond = cond
		loop.UDF.Names = udfNames(core.RoleCond.Name, e.UDF)
	} else {
		loop = plan.NewOperator(core.KindRepeat, "repeat")
		loop.Params.Iterations = int(e.Number)
	}
	plan.Connect(seedOp, loop, 0)

	body := core.NewPlan(plan.Name + "-loop")
	loopIn := body.NewOperator(core.KindCollectionSource, e.Over)
	body.LoopInput = loopIn
	benv := scope{
		vars:  map[string]*core.Operator{e.Over: loopIn},
		outer: env,
		plan:  body,
		refs:  map[*core.Operator]*core.Operator{},
	}
	for _, s := range e.Body {
		if s.Expr == nil {
			return nil, errf(s.Line, "store/collect not allowed inside repeat")
		}
		op, err := c.compileExpr(body, &benv, s.Expr)
		if err != nil {
			return nil, err
		}
		benv.vars[s.Name] = op
	}
	out, ok := benv.vars[e.Over]
	if !ok || out == loopIn {
		return nil, errf(e.Line, "loop body never assigns %q (the carried value)", e.Over)
	}
	body.LoopOutput = out
	loop.Body = body
	return loop, nil
}

// udfNames renders role, name pairs as core.UDFs.Names: the registered name
// of every UDF slot an operator was given, which the plan fingerprint needs
// because the operator label carries at most one of them.
func udfNames(pairs ...string) string {
	var s string
	for i := 0; i+1 < len(pairs); i += 2 {
		s += pairs[i] + "=" + pairs[i+1] + ";"
	}
	return s
}

func predOf(p *PredAST) *core.Predicate {
	var op core.PredOp
	switch p.Op {
	case "=":
		op = core.PredEq
	case "<":
		op = core.PredLt
	case "<=":
		op = core.PredLe
	case ">":
		op = core.PredGt
	case ">=":
		op = core.PredGe
	}
	return &core.Predicate{Col: p.Col, Op: op, Value: p.Value}
}
