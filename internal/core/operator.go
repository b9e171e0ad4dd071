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
