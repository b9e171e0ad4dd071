package core

import "fmt"

// The operator table. What an operator kind is — its dataflow arity, whether
// it nests a loop body or runs as a narrow step of a fused chain, its default
// selectivity and cardinality estimator, and the UDF roles it requires — is
// declared here once, one entry per kind. Everything that needs to know a
// kind reads its entry: Kind's classification methods, EstimateCardOf,
// Operator.CheckUDFs (called by Plan.Validate and by the stage harness before
// any kernel compiles), and, through UDFRoles, the plan fingerprint. An
// application kind is one more entry (RegisterKind). What stays per-kind
// policy elsewhere is what a component does with a kind, not what the kind
// is: how an engine evaluates it, how the reference interpreter runs it.

// KindSpec is one entry of the operator table.
type KindSpec struct {
	In, Out int // dataflow input and output arity
	// Loop marks a kind that nests a body plan (Operator.Body).
	Loop bool
	// Narrow marks a stateless single-input kind that executes as a step of
	// a fused chain kernel; the optimizer's fusion discount reads the same
	// flag. Distinct (stateful), MapPart (whole-partition), Sample
	// (round-dependent) and every wide kind are not narrow.
	Narrow bool
	// Selectivity is the output/input ratio assumed when the operator has no
	// hint; 0 means 1.
	Selectivity float64
	// Estimate derives an output cardinality interval from the inputs' (the
	// paper's per-operator cardinality estimator function); nil passes the
	// first input's through.
	Estimate func(o *Operator, in []CardEstimate) CardEstimate
	// Needs lists the UDFs an operator of the kind must carry.
	Needs []UDFNeed
}

// UDFNeed is one UDF a kind requires: Role must be filled unless Or reports
// that the operator carries the declarative form OrName names, which stands
// in for it.
type UDFNeed struct {
	Role   *UDFRole
	Or     func(*Operator) bool
	OrName string
}

// UDFRole is one function slot of UDFs: the name it is hashed under and a
// getter (nil when the slot is empty).
type UDFRole struct {
	Name string
	Get  func(u *UDFs) any
}

// udfFunc is the set of Go types of the UDF slots.
type udfFunc interface {
	func(any) any | func(any) []any | func(any) bool | func([]any) []any |
		func(a, b any) any | func(a, b any) bool | func(any) string |
		func(any) (float64, float64) | func(int, []any) bool | func(BroadcastCtx)
}

func udfRole[F udfFunc](name string, slot func(u *UDFs) *F) *UDFRole {
	return &UDFRole{
		Name: name,
		Get: func(u *UDFs) any {
			if f := *slot(u); f != nil {
				return f
			}
			return nil
		},
	}
}

// The function roles of UDFs.
var (
	RoleMap       = udfRole("map", func(u *UDFs) *func(any) any { return &u.Map })
	RoleFlatMap   = udfRole("flatmap", func(u *UDFs) *func(any) []any { return &u.FlatMap })
	RolePred      = udfRole("pred", func(u *UDFs) *func(any) bool { return &u.Pred })
	RoleMapPart   = udfRole("mappart", func(u *UDFs) *func([]any) []any { return &u.MapPart })
	RoleKey       = udfRole("key", func(u *UDFs) *func(any) any { return &u.Key })
	RoleKeyRight  = udfRole("keyright", func(u *UDFs) *func(any) any { return &u.KeyRight })
	RoleReduce    = udfRole("reduce", func(u *UDFs) *func(a, b any) any { return &u.Reduce })
	RoleCombine   = udfRole("combine", func(u *UDFs) *func(l, r any) any { return &u.Combine })
	RoleLess      = udfRole("less", func(u *UDFs) *func(a, b any) bool { return &u.Less })
	RoleFormat    = udfRole("format", func(u *UDFs) *func(any) string { return &u.Format })
	RoleLeftNums  = udfRole("leftnums", func(u *UDFs) *func(any) (float64, float64) { return &u.LeftNums })
	RoleRightNums = udfRole("rightnums", func(u *UDFs) *func(any) (float64, float64) { return &u.RightNums })
	RoleCond      = udfRole("cond", func(u *UDFs) *func(int, []any) bool { return &u.Cond })
	RoleOpen      = udfRole("open", func(u *UDFs) *func(BroadcastCtx) { return &u.Open })
)

// UDFRoles lists every function role in the one order plan fingerprints hash
// them.
var UDFRoles = []*UDFRole{
	RoleMap, RoleFlatMap, RolePred, RoleMapPart, RoleKey, RoleKeyRight, RoleReduce,
	RoleCombine, RoleLess, RoleFormat, RoleLeftNums, RoleRightNums, RoleCond, RoleOpen,
}

// needs lists roles that have no declarative stand-in.
func needs(roles ...*UDFRole) []UDFNeed {
	out := make([]UDFNeed, len(roles))
	for i, r := range roles {
		out[i] = UDFNeed{Role: r}
	}
	return out
}

// opTable holds an entry per kind. It is written only at init time (the
// built-ins below, RegisterKind from application init functions) and read
// concurrently afterwards. It is filled by init because its estimators read
// it back through DefaultSelectivity.
var opTable map[Kind]*KindSpec

func init() {
	hasWhere := func(o *Operator) bool { return o.Params.Where != nil }
	hasReduceExpr := func(o *Operator) bool { return o.UDF.ReduceExpr != nil }
	opTable = map[Kind]*KindSpec{
		KindTextFileSource:   {Out: 1, Estimate: widePrior},
		KindCollectionSource: {Out: 1, Estimate: collectionCard},
		KindTableSource:      {Out: 1, Estimate: widePrior},

		KindMap:     {In: 1, Out: 1, Narrow: true, Needs: needs(RoleMap)},
		KindFlatMap: {In: 1, Out: 1, Narrow: true, Selectivity: 3, Estimate: scaled, Needs: needs(RoleFlatMap)},
		KindFilter: {In: 1, Out: 1, Narrow: true, Selectivity: 0.5, Estimate: scaled,
			Needs: []UDFNeed{{Role: RolePred, Or: hasWhere, OrName: "Where predicate"}}},
		KindProject:   {In: 1, Out: 1, Narrow: true},
		KindMapPart:   {In: 1, Out: 1, Needs: needs(RoleMapPart)},
		KindSample:    {In: 1, Out: 1, Estimate: sampleCard},
		KindDistinct:  {In: 1, Out: 1, Selectivity: 0.7, Estimate: scaled},
		KindSort:      {In: 1, Out: 1},
		KindCount:     {In: 1, Out: 1, Estimate: single},
		KindReduce:    {In: 1, Out: 1, Estimate: single, Needs: needs(RoleReduce)},
		KindGroupBy:   {In: 1, Out: 1, Selectivity: 0.1, Estimate: scaled, Needs: needs(RoleKey)},
		KindZipWithID: {In: 1, Out: 1},
		KindCache:     {In: 1, Out: 1},
		KindReduceBy: {In: 1, Out: 1, Selectivity: 0.1, Estimate: scaled, Needs: []UDFNeed{
			{Role: RoleKey, Or: hasReduceExpr, OrName: "ReduceExpr"},
			{Role: RoleReduce, Or: hasReduceExpr, OrName: "ReduceExpr"},
		}},

		KindJoin:      {In: 2, Out: 1, Estimate: joinCard(1e-3, 0.3), Needs: needs(RoleKey)},
		KindIEJoin:    {In: 2, Out: 1, Estimate: joinCard(0.25, 0.2), Needs: needs(RoleLeftNums, RoleRightNums)},
		KindCartesian: {In: 2, Out: 1, Estimate: func(_ *Operator, in []CardEstimate) CardEstimate { return in[0].Mul(in[1]) }},
		KindUnion:     {In: 2, Out: 1, Estimate: func(_ *Operator, in []CardEstimate) CardEstimate { return in[0].Add(in[1]) }},
		KindIntersect: {In: 2, Out: 1, Estimate: intersectCard},
		KindCoGroup:   {In: 2, Out: 1, Selectivity: 0.1, Estimate: coGroupCard, Needs: needs(RoleKey)},

		// A loop's output cardinality is its body output's; approximated by
		// the loop input when the body is not analyzed.
		KindRepeat:  {In: 1, Out: 1, Loop: true, Estimate: loopCard},
		KindDoWhile: {In: 1, Out: 1, Loop: true, Estimate: loopCard},
		// One (vertex, rank) pair per distinct vertex; edges/10 heuristic.
		KindPageRank: {In: 1, Out: 1, Estimate: func(_ *Operator, in []CardEstimate) CardEstimate {
			return in[0].Scale(0.1).Widen(0.5)
		}},

		KindCollectionSink: {In: 1},
		KindTextFileSink:   {In: 1},
	}
}

// RegisterKind adds an application-defined operator kind to the table
// (extensibility, Section 3 of the paper). Call it at init time.
func RegisterKind(k Kind, spec KindSpec) { opTable[k] = &spec }

// unknownKind is what a kind absent from the table reads as.
var unknownKind = KindSpec{In: 1, Out: 1}

func (k Kind) spec() *KindSpec {
	if s, ok := opTable[k]; ok {
		return s
	}
	return &unknownKind
}

// Known reports whether k has an entry in the operator table.
func (k Kind) Known() bool {
	_, ok := opTable[k]
	return ok
}

// InArity returns how many dataflow inputs the operator kind consumes.
func (k Kind) InArity() int { return k.spec().In }

// OutArity returns how many dataflow outputs the operator kind produces.
func (k Kind) OutArity() int { return k.spec().Out }

// IsSource reports whether the kind has no dataflow inputs.
func (k Kind) IsSource() bool { return k.InArity() == 0 }

// IsSink reports whether the kind has no dataflow outputs.
func (k Kind) IsSink() bool { return k.OutArity() == 0 }

// IsLoop reports whether the kind nests a loop body.
func (k Kind) IsLoop() bool { return k.spec().Loop }

// IsNarrow reports whether the kind runs as a step of a fused chain.
func (k Kind) IsNarrow() bool { return k.spec().Narrow }

// CheckUDFs reports the first UDF the operator's kind requires that the
// operator lacks, naming both; nil when none is missing. It is the one
// missing-UDF check: Plan.Validate runs it on every operator, loop bodies
// included, and the stage harness on every operator of a stage before any
// kernel compiles, so no kernel calls a nil UDF.
func (o *Operator) CheckUDFs() error {
	for _, n := range o.Kind.spec().Needs {
		if n.Role.Get(&o.UDF) != nil || n.Or != nil && n.Or(o) {
			continue
		}
		if n.OrName != "" {
			return fmt.Errorf("core: %s lacks a %s UDF or a %s", o, n.Role.Name, n.OrName)
		}
		return fmt.Errorf("core: %s lacks a %s UDF", o, n.Role.Name)
	}
	return nil
}

// DefaultSelectivity returns the operator's selectivity hint, else its kind's
// default. RHEEM "comes with default selectivity values in case they are not
// provided".
func (o *Operator) DefaultSelectivity() float64 {
	if o.Selectivity > 0 {
		return o.Selectivity
	}
	if s := o.Kind.spec().Selectivity; s > 0 {
		return s
	}
	return 1
}

// EstimateCardOf derives an operator's output cardinality interval from its
// inputs' through its kind's estimator.
func EstimateCardOf(op *Operator, in []CardEstimate) CardEstimate {
	if est := op.Kind.spec().Estimate; est != nil {
		return est(op, in)
	}
	return in[0]
}

// The estimators the table's entries share.

// widePrior is a file or table source's estimate before source sampling or
// table statistics resolve it in the optimizer (bounded for readable cost
// displays).
func widePrior(*Operator, []CardEstimate) CardEstimate {
	return CardEstimate{Low: 0, High: 1e9, Confidence: 0.05}
}

func collectionCard(o *Operator, _ []CardEstimate) CardEstimate {
	return ExactCard(int64(len(o.Params.Collection)))
}

func scaled(o *Operator, in []CardEstimate) CardEstimate { return in[0].Scale(o.DefaultSelectivity()) }

func single(*Operator, []CardEstimate) CardEstimate { return ExactCard(1) }

func sampleCard(o *Operator, in []CardEstimate) CardEstimate {
	if o.Params.SampleSize > 0 {
		return ExactCard(int64(o.Params.SampleSize))
	}
	return in[0].Scale(o.Params.SampleFraction)
}

func intersectCard(_ *Operator, in []CardEstimate) CardEstimate {
	lo := in[0]
	if in[1].High < lo.High {
		lo = in[1]
	}
	return lo.Scale(0.5)
}

func coGroupCard(o *Operator, in []CardEstimate) CardEstimate {
	return in[0].Add(in[1]).Scale(o.DefaultSelectivity())
}

// joinCard is the classic |L|*|R|/max(distinct) heuristic collapsed into a
// selectivity factor sel with slack; a hint replaces both.
func joinCard(sel, slack float64) func(*Operator, []CardEstimate) CardEstimate {
	return func(o *Operator, in []CardEstimate) CardEstimate {
		prod := in[0].Mul(in[1])
		if o.Selectivity > 0 {
			return prod.Scale(o.Selectivity)
		}
		return prod.Scale(sel).Widen(slack)
	}
}

func loopCard(_ *Operator, in []CardEstimate) CardEstimate { return in[0].Widen(0.5) }
