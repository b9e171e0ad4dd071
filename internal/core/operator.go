package core

import (
	"fmt"
)

// Kind identifies a logical (platform-agnostic) RHEEM operator type.
type Kind string

// The built-in operator kinds. Applications can register further kinds via
// RegisterKind.
const (
	// Sources.
	KindTextFileSource   Kind = "TextFileSource"   // reads lines from a file (local or DFS)
	KindCollectionSource Kind = "CollectionSource" // emits an in-memory collection
	KindTableSource      Kind = "TableSource"      // scans a relational-store table

	// Unary transformations.
	KindMap       Kind = "Map"
	KindFlatMap   Kind = "FlatMap"
	KindFilter    Kind = "Filter"
	KindMapPart   Kind = "MapPartitions"
	KindSample    Kind = "Sample"
	KindDistinct  Kind = "Distinct"
	KindSort      Kind = "Sort"
	KindCount     Kind = "Count"
	KindReduce    Kind = "Reduce"   // global aggregation to a single quantum
	KindReduceBy  Kind = "ReduceBy" // per-key aggregation
	KindGroupBy   Kind = "GroupBy"  // per-key materialized groups
	KindZipWithID Kind = "ZipWithID"
	KindCache     Kind = "Cache"
	KindProject   Kind = "Project" // record-level projection (push-downable)

	// Binary operators.
	KindJoin      Kind = "Join"      // equi-join on extracted keys
	KindIEJoin    Kind = "IEJoin"    // inequality join (two inequality conditions)
	KindCartesian Kind = "Cartesian" // cross product
	KindUnion     Kind = "Union"
	KindIntersect Kind = "Intersect"
	KindCoGroup   Kind = "CoGroup"

	// Loops.
	KindRepeat  Kind = "Repeat"  // fixed iteration count, nested body plan
	KindDoWhile Kind = "DoWhile" // loop until a convergence UDF is satisfied

	// Graph composite.
	KindPageRank Kind = "PageRank" // edges -> (vertex, rank) pairs

	// Sinks.
	KindCollectionSink Kind = "CollectionSink" // materializes results for the driver
	KindTextFileSink   Kind = "TextFileSink"   // writes formatted quanta to a file
)

// Inequality is a comparison operator used by IEJoin conditions.
type Inequality int

// Inequality comparison kinds.
const (
	Less Inequality = iota
	LessEq
	Greater
	GreaterEq
)

func (iq Inequality) String() string {
	switch iq {
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Greater:
		return ">"
	case GreaterEq:
		return ">="
	}
	return "?"
}

// Holds reports whether "a iq b" holds.
func (iq Inequality) Holds(a, b float64) bool {
	switch iq {
	case Less:
		return a < b
	case LessEq:
		return a <= b
	case Greater:
		return a > b
	case GreaterEq:
		return a >= b
	}
	return false
}

// BroadcastCtx gives UDFs access to broadcast side inputs, keyed by the
// producing operator's label (the execution-context of the paper's extended
// functions).
type BroadcastCtx map[string][]any

// Get returns the broadcast collection published under label.
func (b BroadcastCtx) Get(label string) []any { return b[label] }

// UDFs bundles the user-defined functions an operator may carry. Which
// fields are consulted depends on the operator kind.
type UDFs struct {
	Map     func(any) any   // Map
	FlatMap func(any) []any // FlatMap
	Pred    func(any) bool  // Filter

	// MapExpr, when set, is the declarative form of Map (builders keep the
	// two consistent: Map = MapExpr.Fn()). Row-at-a-time paths only ever
	// call Map; the vectorized kernel compiler recognizes MapExpr and runs
	// it as a per-column tight loop.
	MapExpr *MapExpr

	// ReduceExpr, when set, is the declarative form of a grouped
	// aggregation (builders keep Key = ReduceExpr.KeyFn()). Engines
	// recognize it and run the two-phase partial/merge aggregation —
	// vectorized over ColumnBatches when the columnar plane is on, through
	// the row-at-a-time AggState fold otherwise. Reduce stays nil: pairwise
	// folding cannot express avg, so declarative reduce-bys never take the
	// opaque UDF path.
	ReduceExpr *ReduceExpr
	MapPart    func([]any) []any   // MapPartitions
	Key        func(any) any       // ReduceBy, GroupBy, Join (left), CoGroup (left)
	KeyRight   func(any) any       // Join (right), CoGroup (right)
	Reduce     func(a, b any) any  // Reduce, ReduceBy
	Combine    func(l, r any) any  // Join result composer; default -> Record{l, r}
	Less       func(a, b any) bool // Sort; default CompareAny
	Format     func(any) string    // TextFileSink; default fmt.Sprint

	// IEJoin condition attribute extractors: for a left quantum, LeftNums
	// returns the values compared under IEOp1 and IEOp2; likewise RightNums.
	LeftNums  func(any) (float64, float64)
	RightNums func(any) (float64, float64)

	Cond func(rounds int, current []any) bool // DoWhile continuation test

	// Open, when set, is invoked by the executing platform before the first
	// quantum is processed, handing the UDF its broadcast side inputs.
	Open func(bc BroadcastCtx)

	// Names lists, as "role=name;" in slot order, the name each filled slot
	// was registered under by a frontend that has named UDFs (latin). It is
	// part of the UDF identity in plan fingerprints: closures made by one
	// factory share a code symbol, and only their names tell them apart.
	Names string
}

// Params carries kind-specific scalar parameters.
type Params struct {
	Path           string  // TextFileSource/Sink: file path ("dfs://..." or local)
	Table          string  // TableSource: table name
	Store          string  // TableSource: relational store instance name
	Columns        []int   // Project / TableSource projected columns (nil = all)
	Collection     []any   // CollectionSource payload
	SampleSize     int     // Sample: absolute sample size
	SampleFraction float64 // Sample: fractional size (used when SampleSize==0)
	SampleMethod   string  // Sample: "bernoulli", "reservoir", "shuffle-first" (default bernoulli)
	Iterations     int     // Repeat: fixed iteration count; PageRank: #iterations
	MaxIterations  int     // DoWhile: safety bound
	DampingFactor  float64 // PageRank: damping (default 0.85)
	Seed           int64   // Sample: RNG seed (0 = nondeterministic-free default 1)

	// IEJoin conditions: left.attr1 <op1> right.attr1 AND left.attr2 <op2> right.attr2.
	IEOp1, IEOp2 Inequality

	// Where is an optional declarative filter predicate (instead of an
	// opaque UDF); relational platforms push it into scans and indexes.
	Where *Predicate

	// CollectionDigest is CollectionDigest(Collection), stamped by whoever
	// computed it when the collection was registered; "" means not known, and
	// fingerprinting hashes the content itself. Set it only together with
	// Collection, from a slice that is not written to afterwards.
	CollectionDigest string
}

// Operator is a vertex of a RheemPlan: a platform-agnostic data
// transformation over its input quanta.
type Operator struct {
	ID    int
	Kind  Kind
	Label string // human-readable role, e.g. "parse" in Map(parse)

	UDF    UDFs
	Params Params

	// Selectivity is an optional user hint: expected output/input cardinality
	// ratio. Zero means unknown (kind defaults apply).
	Selectivity float64

	// TargetPlatform pins this operator to a platform (withTargetPlatform in
	// the paper). Empty means the optimizer is free to choose.
	TargetPlatform string

	// OuterRef marks a loop-body source operator (a CollectionSource with
	// nil Params.Collection) that reads the output of an operator of the
	// surrounding plan — e.g. SGD's Sample consuming the cached points from
	// outside the loop (Figure 3 of the paper). The executor materializes
	// the referenced output before entering the loop and feeds it to this
	// placeholder every iteration.
	OuterRef *Operator

	// Body is the nested subplan of loop operators (Repeat/DoWhile). The
	// subplan reads its loop-carried input through a LoopInput collection
	// source (identified by Plan.LoopInput) and produces the next loop value
	// at Plan.LoopOutput.
	Body *Plan

	// Broadcasts lists operators (in the same plan) whose full output is
	// broadcast to this operator as side input, by plan edge. Managed by
	// Plan.Broadcast.
	broadcasts []*Operator

	inputs  []*Operator // filled by Plan.Connect
	outputs []*Operator
}

// InArity returns how many dataflow inputs the operator kind consumes.
func (k Kind) InArity() int {
	switch k {
	case KindTextFileSource, KindCollectionSource, KindTableSource:
		return 0
	case KindJoin, KindIEJoin, KindCartesian, KindUnion, KindIntersect, KindCoGroup:
		return 2
	default:
		return 1
	}
}

// OutArity returns how many dataflow outputs the operator kind produces.
func (k Kind) OutArity() int {
	switch k {
	case KindCollectionSink, KindTextFileSink:
		return 0
	default:
		return 1
	}
}

// IsSource reports whether the kind has no dataflow inputs.
func (k Kind) IsSource() bool { return k.InArity() == 0 }

// IsSink reports whether the kind has no dataflow outputs.
func (k Kind) IsSink() bool { return k.OutArity() == 0 }

// IsLoop reports whether the kind nests a loop body.
func (k Kind) IsLoop() bool { return k == KindRepeat || k == KindDoWhile }

// Inputs returns the operators feeding this operator, in port order.
func (o *Operator) Inputs() []*Operator { return o.inputs }

// Outputs returns the operators consuming this operator's output.
func (o *Operator) Outputs() []*Operator { return o.outputs }

// Broadcasts returns the operators broadcast into this operator.
func (o *Operator) Broadcasts() []*Operator { return o.broadcasts }

// OuterRefs returns a loop's outer references: the placeholders of its body
// that read an operator of the surrounding plan (each one's OuterRef). It is
// nil for operators without a body.
func (o *Operator) OuterRefs() []*Operator {
	if o.Body == nil {
		return nil
	}
	var refs []*Operator
	for _, bo := range o.Body.ops {
		if bo.OuterRef != nil {
			refs = append(refs, bo)
		}
	}
	return refs
}

func (o *Operator) String() string {
	if o.Label != "" {
		return fmt.Sprintf("%s(%s)#%d", o.Kind, o.Label, o.ID)
	}
	return fmt.Sprintf("%s#%d", o.Kind, o.ID)
}

// DefaultSelectivity returns the selectivity assumed for an operator when
// the application provides no hint, per kind. RHEEM "comes with default
// selectivity values in case they are not provided".
func (o *Operator) DefaultSelectivity() float64 {
	if o.Selectivity > 0 {
		return o.Selectivity
	}
	switch o.Kind {
	case KindFilter:
		return 0.5
	case KindFlatMap:
		return 3.0
	case KindDistinct:
		return 0.7
	case KindReduceBy, KindGroupBy, KindCoGroup:
		return 0.1
	default:
		return 1.0
	}
}

// EstimateOutCard derives an output cardinality interval from the input
// cardinality intervals, per kind. It is the per-operator "cardinality
// estimator function" of the paper.
func (o *Operator) EstimateOutCard(in []CardEstimate) CardEstimate {
	sel := o.DefaultSelectivity()
	switch o.Kind {
	case KindCollectionSource:
		n := int64(len(o.Params.Collection))
		return ExactCard(n)
	case KindTextFileSource, KindTableSource:
		// Resolved by source sampling / table statistics in the optimizer;
		// here only a wide prior (bounded for readable cost displays).
		return CardEstimate{Low: 0, High: 1e9, Confidence: 0.05}
	case KindMap, KindMapPart, KindSort, KindCache, KindZipWithID, KindProject:
		return in[0]
	case KindFilter, KindFlatMap:
		return in[0].Scale(sel)
	case KindDistinct, KindGroupBy, KindReduceBy:
		return in[0].Scale(sel)
	case KindCount, KindReduce:
		return ExactCard(1)
	case KindSample:
		if o.Params.SampleSize > 0 {
			return ExactCard(int64(o.Params.SampleSize))
		}
		return in[0].Scale(o.Params.SampleFraction)
	case KindUnion:
		return in[0].Add(in[1])
	case KindIntersect:
		lo := in[0]
		if in[1].High < lo.High {
			lo = in[1]
		}
		return lo.Scale(0.5)
	case KindJoin:
		// Classic |L|*|R|/max(distinct) heuristic collapsed into a sel factor.
		prod := in[0].Mul(in[1])
		if o.Selectivity > 0 {
			return prod.Scale(o.Selectivity)
		}
		return prod.Scale(1e-3).Widen(0.3)
	case KindCartesian:
		return in[0].Mul(in[1])
	case KindIEJoin:
		prod := in[0].Mul(in[1])
		if o.Selectivity > 0 {
			return prod.Scale(o.Selectivity)
		}
		return prod.Scale(0.25).Widen(0.2)
	case KindCoGroup:
		return in[0].Add(in[1]).Scale(sel)
	case KindRepeat, KindDoWhile:
		// The loop's output cardinality is its body output's; approximated by
		// the loop input when the body is not yet analyzed.
		return in[0].Widen(0.5)
	case KindPageRank:
		// One (vertex, rank) pair per distinct vertex; edges/10 heuristic.
		return in[0].Scale(0.1).Widen(0.5)
	case KindCollectionSink, KindTextFileSink:
		return in[0]
	}
	return in[0]
}

// kindRegistry supports application-defined operator kinds (extensibility,
// Section 3 of the paper).
type kindInfo struct {
	InArity, OutArity int
	Estimator         func(o *Operator, in []CardEstimate) CardEstimate
}

var kindRegistry = map[Kind]kindInfo{}

// RegisterKind registers a custom operator kind with its arities and an
// optional cardinality estimator.
func RegisterKind(k Kind, inArity, outArity int, est func(o *Operator, in []CardEstimate) CardEstimate) {
	kindRegistry[k] = kindInfo{InArity: inArity, OutArity: outArity, Estimator: est}
}

// InArityOf returns the input arity of an operator, consulting the
// custom-kind registry for application-defined kinds.
func InArityOf(op *Operator) int {
	if ki, ok := registeredKind(op.Kind); ok {
		return ki.InArity
	}
	return op.Kind.InArity()
}

// OutArityOf returns the output arity of an operator, consulting the
// custom-kind registry.
func OutArityOf(op *Operator) int {
	if ki, ok := registeredKind(op.Kind); ok {
		return ki.OutArity
	}
	return op.Kind.OutArity()
}

// EstimateCardOf estimates an operator's output cardinality, dispatching to
// a registered custom estimator when one exists.
func EstimateCardOf(op *Operator, in []CardEstimate) CardEstimate {
	if ki, ok := registeredKind(op.Kind); ok && ki.Estimator != nil {
		return ki.Estimator(op, in)
	}
	return op.EstimateOutCard(in)
}

// registeredKind returns extensibility info for k, if any.
func registeredKind(k Kind) (kindInfo, bool) {
	ki, ok := kindRegistry[k]
	return ki, ok
}
