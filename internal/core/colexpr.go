package core

import "fmt"

// NumOp is a declarative arithmetic operator for MapExpr.
type NumOp int

// Declarative numeric map operations.
const (
	NumAdd NumOp = iota
	NumSub
	NumMul
)

func (o NumOp) String() string {
	switch o {
	case NumAdd:
		return "+"
	case NumSub:
		return "-"
	case NumMul:
		return "*"
	}
	return "?"
}

// WholeQuantum, used as the Col of a MapExpr or Predicate, addresses the
// quantum itself (a bare scalar) rather than a record field.
const WholeQuantum = -1

// MapExpr is a declarative single-column numeric map: field Col (or the
// whole scalar quantum) combined with Operand under Op. Like Params.Where it
// gives the system a transparent form of a UDF: the vectorized kernel
// compiler runs it as a per-column tight loop instead of a per-quantum
// closure call. Map operators carry it in UDF.MapExpr alongside the
// equivalent opaque closure (Fn), which every row-at-a-time path uses.
//
// Arithmetic stays in the int64 domain when both the value and the operand
// are integral, and is carried out in float64 otherwise (coercing like
// Record.Float).
type MapExpr struct {
	Col     int
	Op      NumOp
	Operand any
}

func (e *MapExpr) String() string {
	if e.Col == WholeQuantum {
		return fmt.Sprintf("q %s %v", e.Op, e.Operand)
	}
	return fmt.Sprintf("col%d %s %v", e.Col, e.Op, e.Operand)
}

// Fn compiles the expression into a quantum map function.
func (e *MapExpr) Fn() func(any) any {
	return func(q any) any { return e.Apply(q) }
}

// Apply evaluates the expression against one quantum — the exact semantics
// the vectorized path reproduces column-wise. Field expressions require a
// Record and return a fresh copy with the field replaced.
func (e *MapExpr) Apply(q any) any {
	if e.Col == WholeQuantum {
		return e.applyValue(q)
	}
	r, ok := q.(Record)
	if !ok {
		panic(fmt.Sprintf("core: map expr %s: quantum %T is not a Record", e, q))
	}
	out := r.Copy()
	out[e.Col] = e.applyValue(r[e.Col])
	return out
}

func (e *MapExpr) applyValue(v any) any {
	if iv, ok := v.(int64); ok {
		if w, ok := intOperand(e.Operand); ok {
			switch e.Op {
			case NumAdd:
				return iv + w
			case NumSub:
				return iv - w
			case NumMul:
				return iv * w
			}
			panic(fmt.Sprintf("core: map expr %s: unknown op", e))
		}
	}
	f, ok := toFloat(v)
	if !ok {
		panic(fmt.Sprintf("core: map expr %s: value %T is not numeric", e, v))
	}
	w, ok := toFloat(e.Operand)
	if !ok {
		panic(fmt.Sprintf("core: map expr %s: operand %T is not numeric", e, e.Operand))
	}
	switch e.Op {
	case NumAdd:
		return f + w
	case NumSub:
		return f - w
	case NumMul:
		return f * w
	}
	panic(fmt.Sprintf("core: map expr %s: unknown op", e))
}

// AggOp is a declarative aggregation operator for ReduceExpr.
type AggOp int

// Declarative aggregation operations.
const (
	AggSum AggOp = iota
	AggCount
	AggMin
	AggMax
	AggAvg
)

func (o AggOp) String() string {
	switch o {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "?"
}

// AggSpec is one aggregate of a ReduceExpr: Op applied to record field Col.
// AggCount ignores Col (use WholeQuantum by convention).
type AggSpec struct {
	Op  AggOp
	Col int
}

func (a AggSpec) String() string {
	if a.Op == AggCount {
		return "count(*)"
	}
	return fmt.Sprintf("%s(col%d)", a.Op, a.Col)
}

// ReduceExpr is a declarative grouped aggregation over Records: group by the
// GroupCols fields, apply each AggSpec to its field. Like Params.Where and
// MapExpr it gives the system a transparent form of a reduce-by UDF: the
// vectorized kernel absorbs ColumnBatches through typed per-column
// accumulator loops, while every row-at-a-time path folds quanta through the
// same AggState — both orders of evaluation are identical by construction,
// so a per-batch fallback to the row path never changes sink output.
//
// Output records are [group values..., one value per AggSpec] in
// first-occurrence group order. Sum/min/max stay in the int64 domain until a
// non-int64 numeric value arrives (the MapExpr migration rule); count is
// int64; avg is float64.
type ReduceExpr struct {
	GroupCols []int
	Aggs      []AggSpec
}

func (e *ReduceExpr) String() string {
	s := "by("
	for i, c := range e.GroupCols {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("col%d", c)
	}
	s += ")"
	for _, a := range e.Aggs {
		s += " " + a.String()
	}
	return s
}

// Valid reports whether the expression is well-formed: at least one group
// column and one aggregate, all referenced fields non-negative.
func (e *ReduceExpr) Valid() error {
	if len(e.GroupCols) == 0 {
		return fmt.Errorf("core: reduce expr %s: no group columns", e)
	}
	if len(e.Aggs) == 0 {
		return fmt.Errorf("core: reduce expr %s: no aggregates", e)
	}
	for _, c := range e.GroupCols {
		if c < 0 {
			return fmt.Errorf("core: reduce expr %s: negative group column %d", e, c)
		}
	}
	for _, a := range e.Aggs {
		if a.Col < 0 && a.Op != AggCount {
			return fmt.Errorf("core: reduce expr %s: negative aggregate column %d", e, a.Col)
		}
	}
	return nil
}

// KeyFn compiles the group-key extractor over input records: the bare field
// value for a single group column, a Record of the fields otherwise. It is
// installed as UDF.Key so key-aware machinery (partitioners, the optimizer)
// sees the declarative reduce-by like any other.
func (e *ReduceExpr) KeyFn() func(any) any {
	cols := e.GroupCols
	if len(cols) == 1 {
		c := cols[0]
		return func(q any) any { return q.(Record)[c] }
	}
	return func(q any) any {
		r := q.(Record)
		k := make(Record, len(cols))
		for i, c := range cols {
			k[i] = r[c]
		}
		return k
	}
}

// PartialKeyFn compiles the group-key extractor over partial records, whose
// group values sit at positions 0..len(GroupCols)-1 (see AggState.Partials).
// Exchanges between the partial and merge phases hash on it.
func (e *ReduceExpr) PartialKeyFn() func(any) any {
	k := len(e.GroupCols)
	if k == 1 {
		return func(q any) any { return q.(Record)[0] }
	}
	return func(q any) any {
		r := q.(Record)
		return Record(r[:k:k])
	}
}

// intOperand reports v as int64 when it is an integral Go type, keeping
// int64-domain arithmetic transparent to both execution paths.
func intOperand(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	}
	return 0, false
}
