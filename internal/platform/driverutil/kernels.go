package driverutil

import (
	"fmt"
	"math"

	"rheem/internal/algo"
	"rheem/internal/core"
)

// Operator kernels over in-memory slices. The single-node engine applies
// them to whole datasets; partitioned engines apply them per partition
// after shuffling quanta so that co-keyed quanta share a partition.

// Combine returns the join result composer of op, defaulting to pairing the
// operands in a Record.
func Combine(op *core.Operator) func(l, r any) any {
	if op.UDF.Combine != nil {
		return op.UDF.Combine
	}
	return func(l, r any) any { return core.Record{l, r} }
}

// KeyRight returns the right-side key extractor, defaulting to the left's.
func KeyRight(op *core.Operator) func(any) any {
	if op.UDF.KeyRight != nil {
		return op.UDF.KeyRight
	}
	return op.UDF.Key
}

// PredOf returns op's filter predicate: the UDF when present, else the
// compiled declarative Where predicate (the table requires one of them).
func PredOf(op *core.Operator) func(any) bool {
	if op.UDF.Pred != nil {
		return op.UDF.Pred
	}
	return op.Params.Where.Fn()
}

// LessOf returns op's ordering, defaulting to CompareAny.
func LessOf(op *core.Operator) func(a, b any) bool {
	if op.UDF.Less != nil {
		return op.UDF.Less
	}
	return func(a, b any) bool { return core.CompareAny(a, b) < 0 }
}

// HashJoin equi-joins two slices: build a hash table over the right side,
// probe with the left.
func HashJoin(op *core.Operator, left, right []any) []any {
	return buildJoin(op, right).probe(op, left)
}

// joinTable is a join's right side hashed on its key (core.GroupKey of
// op's right key): the build half of HashJoin, probed read-only, so one
// table serves every left partition at once.
type joinTable struct {
	rows  []any
	first map[any]int32 // key -> the first row holding it
	next  []int32       // row -> the next row holding its key, -1 after the last
}

// buildJoin hashes right on op's right key.
func buildJoin(op *core.Operator, right []any) *joinTable {
	keyR := KeyRight(op)
	t := &joinTable{rows: right, first: make(map[any]int32, len(right)), next: make([]int32, len(right))}
	for i := len(right) - 1; i >= 0; i-- { // backwards, so each chain runs in right order
		k := core.GroupKey(keyR(right[i]))
		j, ok := t.first[k]
		if !ok {
			j = -1
		}
		t.next[i] = j
		t.first[k] = int32(i)
	}
	return t
}

// probe joins every quantum of left with the rows of t sharing its key under
// op's left key: left order, and each quantum's matches in right order.
func (t *joinTable) probe(op *core.Operator, left []any) []any {
	combine := Combine(op)
	var out []any
	for _, l := range left {
		j, ok := t.first[core.GroupKey(op.UDF.Key(l))]
		for ; ok && j >= 0; j = t.next[j] {
			out = append(out, combine(l, t.rows[j]))
		}
	}
	return out
}

// keyFold is the UDF reduce-by's accumulator: one slot per key in
// first-occurrence order, so its output is deterministic, and one map lookup
// per quantum of a key it has seen.
type keyFold struct {
	key    func(any) any
	reduce func(a, b any) any
	pos    map[any]int // GroupKey identity -> slot in vals
	vals   []any
}

// newKeyFold returns an empty fold under op's Key and Reduce UDFs.
func newKeyFold(op *core.Operator) *keyFold {
	return &keyFold{key: op.UDF.Key, reduce: op.UDF.Reduce, pos: map[any]int{}}
}

// add folds every quantum of data into its key's slot.
func (f *keyFold) add(data []any) {
	for _, q := range data {
		k := core.GroupKey(f.key(q))
		if i, ok := f.pos[k]; ok {
			f.vals[i] = f.reduce(f.vals[i], q)
			continue
		}
		f.pos[k] = len(f.vals)
		f.vals = append(f.vals, q)
	}
}

// ReduceByKey folds quanta sharing a key into one quantum per key, over one
// slice: the fold a chain ending in a UDF reduce-by runs per partition
// (RunChainParts). Output order follows first occurrence of each key,
// keeping results deterministic.
func ReduceByKey(op *core.Operator, data []any) []any {
	f := newKeyFold(op)
	f.add(data)
	return f.vals
}

// GroupByKey materializes one Group per key, in first-occurrence order.
func GroupByKey(op *core.Operator, data []any) []any {
	groups := map[any]*core.Group{}
	var order []any
	for _, q := range data {
		orig := op.UDF.Key(q)
		k := core.GroupKey(orig)
		g, ok := groups[k]
		if !ok {
			g = &core.Group{Key: orig}
			groups[k] = g
			order = append(order, k)
		}
		g.Values = append(g.Values, q)
	}
	out := make([]any, len(order))
	for i, k := range order {
		out[i] = *groups[k]
	}
	return out
}

// CoGroup pairs the groups of both sides per key into Records of
// (key, leftValues, rightValues).
func CoGroup(op *core.Operator, left, right []any) []any {
	keyR := KeyRight(op)
	type grp struct {
		orig any
		l, r []any
	}
	groups := map[any]*grp{}
	var order []any
	upsert := func(orig any) *grp {
		k := core.GroupKey(orig)
		g, ok := groups[k]
		if !ok {
			g = &grp{orig: orig}
			groups[k] = g
			order = append(order, k)
		}
		return g
	}
	for _, q := range left {
		g := upsert(op.UDF.Key(q))
		g.l = append(g.l, q)
	}
	for _, q := range right {
		g := upsert(keyR(q))
		g.r = append(g.r, q)
	}
	out := make([]any, len(order))
	for i, k := range order {
		g := groups[k]
		out[i] = core.Record{g.orig, g.l, g.r}
	}
	return out
}

// Distinct removes duplicates (by GroupKey identity), keeping first
// occurrences in order.
func Distinct(data []any) []any {
	seen := map[any]bool{}
	var out []any
	for _, q := range data {
		k := core.GroupKey(q)
		if !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// Intersect emits the distinct quanta present on both sides.
func Intersect(left, right []any) []any {
	rset := make(map[any]bool, len(right))
	for _, q := range right {
		rset[core.GroupKey(q)] = true
	}
	seen := map[any]bool{}
	var out []any
	for _, q := range left {
		k := core.GroupKey(q)
		if rset[k] && !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	return out
}

// Sort orders data by the operator's ordering.
func Sort(op *core.Operator, data []any) []any {
	out := make([]any, len(data))
	copy(out, data)
	core.SortAny(out, LessOf(op))
	return out
}

// Reduce folds all quanta into a single one; an empty input produces an
// empty output.
func Reduce(op *core.Operator, data []any) []any {
	if len(data) == 0 {
		return nil
	}
	acc := data[0]
	for _, q := range data[1:] {
		acc = op.UDF.Reduce(acc, q)
	}
	return []any{acc}
}

// Sample draws a sample per the operator's parameters. round.N distinguishes
// successive draws of loop-resident Sample operators; round.Run is where a
// shuffle-first sample keeps its permutation across a loop's rounds.
func Sample(op *core.Operator, data []any, round core.Round) ([]any, error) {
	seed := op.Params.Seed
	if seed == 0 {
		seed = 1
	}
	seed += int64(round.N) * 7919
	size := op.Params.SampleSize
	switch op.Params.SampleMethod {
	case "", "bernoulli":
		frac := op.Params.SampleFraction
		if size > 0 {
			if len(data) == 0 {
				return nil, nil
			}
			// An absolute size request falls back to reservoir sampling,
			// which honours exact sizes.
			return algo.ReservoirSample(data, size, seed), nil
		}
		return algo.BernoulliSample(data, frac, seed), nil
	case "reservoir":
		if size <= 0 {
			size = int(float64(len(data)) * op.Params.SampleFraction)
		}
		return algo.ReservoirSample(data, size, seed), nil
	case "shuffle-first":
		if size <= 0 {
			size = int(float64(len(data)) * op.Params.SampleFraction)
		}
		// The permutation is seeded by the operator's base seed so successive
		// rounds walk successive windows of one shuffle. It depends on the
		// input's length alone, so a loop run keeps it and each round draws
		// its window from that round's data; an input of a new length
		// rebuilds it. Outside a loop (no Run) it is built per call.
		s, _ := round.Run.Kept(op).(*algo.ShuffleFirstSample)
		if s == nil || s.Len() != len(data) {
			s = algo.NewShuffleFirstSample(len(data), op.Params.Seed+1)
			round.Run.Keep(op, s)
		}
		return s.Draw(data, size, round.N), nil
	default:
		return nil, fmt.Errorf("sample %s: unknown method %q", op, op.Params.SampleMethod)
	}
}

// IEJoinSlices runs the inequality join kernel for op.
func IEJoinSlices(op *core.Operator, left, right []any) []any {
	combine := Combine(op)
	var out []any
	algo.IEJoin(left, right, op.UDF.LeftNums, op.UDF.RightNums, op.Params.IEOp1, op.Params.IEOp2,
		func(l, r any) { out = append(out, combine(l, r)) })
	return out
}

// FormatOf returns op's text formatter, defaulting to fmt.Sprint.
func FormatOf(op *core.Operator) func(any) string {
	if op.UDF.Format != nil {
		return op.UDF.Format
	}
	return func(q any) string { return fmt.Sprint(q) }
}

// AddCards sums two dataset cardinalities, either of which may be unknown
// (negative).
func AddCards(a, b int64) int64 {
	if a < 0 || b < 0 {
		return -1
	}
	return a + b
}

// HashKey is the 64-bit FNV-1a hash the partitioned engines' exchanges
// bucket keys by. Callers normalize keys with core.GroupKey first, which
// turns composite keys into strings; the typed arms hash scalars without
// formatting them.
func HashKey(k any) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	mix := func(b byte) { h ^= uint64(b); h *= prime64 }
	switch v := k.(type) {
	case string:
		for i := 0; i < len(v); i++ {
			mix(v[i])
		}
	case int64:
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	case int:
		return HashKey(int64(v))
	case int32:
		return HashKey(int64(v))
	case float64:
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	case bool:
		if v {
			mix(1)
		} else {
			mix(0)
		}
	case nil:
		mix(0xff)
	default:
		return HashKey(fmt.Sprint(k))
	}
	return h
}
