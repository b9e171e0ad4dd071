package platformtest

import (
	"fmt"
	"slices"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// Interpret is the reference the engines are differentially tested against:
// it evaluates a loop-free plan one operator at a time, one quantum at a
// time, over plain []any — no chain kernels, no column batches, no
// partitions, no two-phase aggregation. The narrow kinds and the reduce-by,
// which the engines run only through compiled kernels, are written out here
// independently of them, and so are map-partitions (one partition, handed to
// the UDF as a copy) and zip-with-id (an id is an input position); the wide
// kinds and sample call the shared driverutil slice kernels the engines use
// too, sample over the whole input. tables supplies the rows of
// the relational tables the plan scans (nil for a plan without table
// sources). The result maps every operator to its output: a sink's entry is
// the rows it collects, and the length of any entry is that operator's
// output cardinality.
func Interpret(p *core.Plan, tables TableRows) (map[*core.Operator][]any, error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := make(map[*core.Operator][]any, len(order))
	for _, op := range order {
		if len(op.Broadcasts()) > 0 {
			return nil, fmt.Errorf("interpret: %s takes broadcast input", op)
		}
		in := make([][]any, len(op.Inputs()))
		for i, producer := range op.Inputs() {
			in[i] = out[producer]
		}
		if out[op], err = interpretOp(op, in, tables); err != nil {
			return nil, fmt.Errorf("interpret: %s: %w", op, err)
		}
	}
	return out, nil
}

// TableRows returns every row of a relational-store table, unfiltered and
// unprojected.
type TableRows func(store, table string) ([]any, error)

// interpretTableSource is the table scan, row at a time: the rows the
// source's pushed-down predicate keeps, projected onto its column list.
func interpretTableSource(op *core.Operator, tables TableRows) (out []any, err error) {
	if tables == nil {
		return nil, fmt.Errorf("no table rows supplied")
	}
	rows, err := tables(op.Params.Store, op.Params.Table)
	if err != nil {
		return nil, err
	}
	for _, q := range rows {
		rec := q.(core.Record)
		if w := op.Params.Where; w != nil && !w.Eval(rec) {
			continue
		}
		if op.Params.Columns != nil {
			proj := core.Record{}
			for _, c := range op.Params.Columns {
				proj = append(proj, rec[c])
			}
			rec = proj
		}
		out = append(out, rec)
	}
	return out, nil
}

func interpretOp(op *core.Operator, in [][]any, tables TableRows) (out []any, err error) {
	switch op.Kind {
	case core.KindCollectionSource:
		return op.Params.Collection, nil
	case core.KindTableSource:
		return interpretTableSource(op, tables)
	case core.KindMap:
		for _, q := range in[0] {
			out = append(out, op.UDF.Map(q))
		}
	case core.KindFilter:
		pred := op.UDF.Pred // the UDF wins over a declarative predicate
		if pred == nil {
			pred = op.Params.Where.EvalQuantum
		}
		for _, q := range in[0] {
			if pred(q) {
				out = append(out, q)
			}
		}
	case core.KindFlatMap:
		for _, q := range in[0] {
			out = append(out, op.UDF.FlatMap(q)...)
		}
	case core.KindProject:
		if op.Params.Columns == nil {
			return in[0], nil
		}
		for _, q := range in[0] {
			proj := core.Record{}
			for _, c := range op.Params.Columns {
				proj = append(proj, q.(core.Record)[c])
			}
			out = append(out, proj)
		}
	case core.KindReduceBy:
		if op.UDF.ReduceExpr != nil {
			return interpretReduceExpr(op.UDF.ReduceExpr, in[0]), nil
		}
		return interpretReduceBy(op, in[0])
	case core.KindDistinct:
		return driverutil.Distinct(in[0]), nil
	case core.KindSort:
		return driverutil.Sort(op, in[0]), nil
	case core.KindJoin:
		return driverutil.HashJoin(op, in[0], in[1]), nil
	case core.KindIEJoin:
		return driverutil.IEJoinSlices(op, in[0], in[1]), nil
	case core.KindGroupBy:
		return driverutil.GroupByKey(op, in[0]), nil
	case core.KindCoGroup:
		return driverutil.CoGroup(op, in[0], in[1]), nil
	case core.KindIntersect:
		return driverutil.Intersect(in[0], in[1]), nil
	case core.KindReduce:
		return driverutil.Reduce(op, in[0]), nil
	case core.KindCount:
		return []any{int64(len(in[0]))}, nil
	case core.KindMapPart:
		return op.UDF.MapPart(slices.Clone(in[0])), nil
	case core.KindZipWithID:
		for i, q := range in[0] {
			out = append(out, core.KV{Key: int64(i), Value: q})
		}
	case core.KindSample:
		return driverutil.Sample(op, in[0], core.Round{}) // a loop-free plan runs outside any loop
	case core.KindUnion:
		return append(append(out, in[0]...), in[1]...), nil
	case core.KindCollectionSink:
		return in[0], nil
	default:
		return nil, fmt.Errorf("kind %s is outside the reference interpreter", op.Kind)
	}
	return out, nil
}

// interpretReduceBy is the UDF reduce-by, row at a time: the first quantum
// of each key, folded with every later one, one output per key in
// first-occurrence order.
func interpretReduceBy(op *core.Operator, rows []any) ([]any, error) {
	if op.UDF.Key == nil || op.UDF.Reduce == nil {
		return nil, fmt.Errorf("reduce-by %s lacks key or reduce UDF", op)
	}
	acc := map[any]any{}
	var order []any
	for _, q := range rows {
		k := core.GroupKey(op.UDF.Key(q))
		if cur, ok := acc[k]; ok {
			acc[k] = op.UDF.Reduce(cur, q)
		} else {
			acc[k] = q
			order = append(order, k)
		}
	}
	out := make([]any, len(order))
	for i, k := range order {
		out[i] = acc[k]
	}
	return out, nil
}

// interpretReduceExpr is the declarative reduce-by, single-phase and row at
// a time: one output Record per group in first-occurrence order, the group
// values followed by one value per aggregate. Sum, min and max stay int64
// until the group sees a value of another numeric type and are float64 from
// then on; count is int64; avg is the float64 sum over the row count.
func interpretReduceExpr(e *core.ReduceExpr, rows []any) []any {
	type acc struct {
		isFloat bool
		i, n    int64
		f       float64
	}
	index := map[any]int{} // group identity -> position in out
	keyOf := e.KeyFn()
	var accs [][]acc
	var out []any
	for _, q := range rows {
		rec := q.(core.Record)
		id := core.GroupKey(keyOf(q))
		g, seen := index[id]
		if !seen {
			g = len(out)
			index[id] = g
			key := core.Record{}
			for _, c := range e.GroupCols {
				key = append(key, rec[c])
			}
			out = append(out, key)
			accs = append(accs, make([]acc, len(e.Aggs)))
		}
		for ai, a := range e.Aggs {
			ac := &accs[g][ai]
			ac.n++
			if a.Op == core.AggCount {
				continue
			}
			if v, isInt := rec[a.Col].(int64); isInt && !ac.isFloat && a.Op != core.AggAvg {
				switch {
				case a.Op == core.AggSum:
					ac.i += v
				case ac.n == 1, a.Op == core.AggMin && v < ac.i, a.Op == core.AggMax && v > ac.i:
					ac.i = v
				}
				continue
			}
			if !ac.isFloat {
				ac.isFloat, ac.f = true, float64(ac.i)
			}
			switch f := rec.Float(a.Col); {
			case a.Op == core.AggSum, a.Op == core.AggAvg:
				ac.f += f
			case ac.n == 1, a.Op == core.AggMin && f < ac.f, a.Op == core.AggMax && f > ac.f:
				ac.f = f
			}
		}
	}
	for g := range out {
		rec := out[g].(core.Record)
		for ai, a := range e.Aggs {
			switch ac := accs[g][ai]; {
			case a.Op == core.AggCount:
				rec = append(rec, ac.n)
			case a.Op == core.AggAvg:
				rec = append(rec, ac.f/float64(ac.n))
			case ac.isFloat:
				rec = append(rec, ac.f)
			default:
				rec = append(rec, ac.i)
			}
		}
		out[g] = rec
	}
	return out
}
