package driverutil

import (
	"sync"
	"sync/atomic"

	"rheem/internal/core"
)

// Vectorized fused kernels. CompileVector layers a columnar execution plan
// over a compiled row kernel: the longest prefix of the chain whose steps
// are declarative — Params.Where filters, UDF.MapExpr numeric maps, and
// projections — compiles to per-column tight loops driven by a selection
// vector, and everything after the first opaque UDF runs through the row
// kernel's tail. A chain terminated by an absorbed reduce-by (FusedChain.Agg)
// additionally feeds its survivors straight into grouped accumulators
// (core.AggState) or, for a UDF reduce-by, a keyed fold, without
// materializing them. At run time each partition is converted to a
// core.ColumnBatch — building only the columns the compiled plan reads — and
// partitions that cannot batch (mixed quantum shapes) or whose columns don't
// satisfy a step's type/validity requirements fall back to the row kernel
// wholesale, so vectorized execution is always observationally identical to
// row execution — same outputs, same per-operator cardinalities, same
// panics. A kernel only ever runs batches it built itself, so it may rewrite
// and recycle them.

// vecStep is one vectorizable chain operator.
type vecStep struct {
	kind core.Kind
	pred *core.Predicate // filter
	expr *core.MapExpr   // map
	cols []int           // project (nil = identity)
	op   *core.Operator
}

// vecStats counts what the vectorized path did at run time. Tails share
// their parent's stats so relstore's pushdown split still accumulates into
// the kernel runChain observes.
type vecStats struct {
	batches    int64
	rows       int64
	fallbacks  int64
	aggBatches int64
	aggRows    int64
}

// VectorKernel wraps a row FusedKernel with a vectorized prefix. It is the
// unit engines execute: Run prefers the column path and degrades to the row
// kernel whenever anything about the partition makes columns unsafe.
type VectorKernel struct {
	row   *FusedKernel
	vec   []vecStep
	rb    *core.Operator // absorbed chain-terminating reduce-by, if any
	need  []int          // original columns the plan reads; nil = all
	stats *vecStats

	aggSniff func(any) // when set, observes every record the reduce-by emits
}

// CompileVector compiles the vectorizable prefix of a fused chain over the
// already-compiled row kernel. agg, when non-nil, is the chain's absorbed
// reduce-by (FusedChain.Agg): its ReduceExpr, when it has one, terminates the
// kernel's survivors in grouped accumulators, and its Key and Reduce UDFs in
// a keyed fold otherwise. CompileVector always succeeds; a chain with no
// recognizable declarative steps simply has an empty prefix and runs on the
// row kernel unchanged.
func CompileVector(ops []*core.Operator, agg *core.Operator, row *FusedKernel) *VectorKernel {
	k := &VectorKernel{row: row, rb: agg, stats: &vecStats{}}
	for _, op := range ops {
		st, ok := vecStepOf(op)
		if !ok {
			break
		}
		k.vec = append(k.vec, st)
	}
	k.need = vecNeed(k.vec, len(ops), k.Agg())
	return k
}

// vecStepOf recognizes the declarative operator forms the column loops can
// execute. A filter carrying an opaque UDF.Pred is not vectorizable even if
// it also has a Where: the row path prefers the UDF (see PredOf), and the
// two paths must agree.
func vecStepOf(op *core.Operator) (vecStep, bool) {
	st := vecStep{kind: op.Kind, op: op}
	switch op.Kind {
	case core.KindFilter:
		if op.UDF.Pred != nil || op.Params.Where == nil {
			return st, false
		}
		st.pred = op.Params.Where
	case core.KindMap:
		if op.UDF.MapExpr == nil {
			return st, false
		}
		st.expr = op.UDF.MapExpr
	case core.KindProject:
		st.cols = op.Params.Columns
	default:
		return st, false
	}
	return st, true
}

// vecNeed statically computes which original input columns the vectorized
// plan can read, simulating plan()'s projection remapping. Emission needs no
// built columns at all — ColumnBatch.value reads clean columns from the
// original boxed rows — so the need list is just the filter and map columns,
// plus the aggregation's group and agg columns when an absorbed aggregation
// consumes the full vectorized prefix. nil means every column may be read
// (a projection the static pass could not resolve). Under-approximation is
// impossible by construction: the run-time plan bounds-checks every column
// and nil-guards unbuilt ones, falling back to the row kernel.
func vecNeed(vec []vecStep, chainLen int, agg *core.ReduceExpr) []int {
	if len(vec) == 0 {
		return nil
	}
	seen := map[int]bool{}
	need := []int{}
	add := func(c int) {
		if c >= 0 && !seen[c] {
			seen[c] = true
			need = append(need, c)
		}
	}
	var cur []int // current projection: nil = identity
	mapTo := func(c int) (int, bool) {
		if c < 0 {
			return 0, false
		}
		if cur == nil {
			return c, true
		}
		if c >= len(cur) {
			return 0, false
		}
		return cur[c], true
	}
	for i := range vec {
		st := &vec[i]
		switch st.kind {
		case core.KindFilter:
			if st.pred.Col != core.WholeQuantum {
				if p, ok := mapTo(st.pred.Col); ok {
					add(p)
				}
			}
		case core.KindMap:
			if st.expr.Col != core.WholeQuantum {
				if p, ok := mapTo(st.expr.Col); ok {
					add(p)
				}
			}
		case core.KindProject:
			if st.cols == nil {
				continue
			}
			next := make([]int, len(st.cols))
			for j, c := range st.cols {
				p, ok := mapTo(c)
				if !ok {
					return nil // can't bound what later steps read
				}
				next[j] = p
			}
			cur = next
		}
	}
	if agg != nil && len(vec) == chainLen {
		for _, c := range agg.GroupCols {
			if p, ok := mapTo(c); ok {
				add(p)
			}
		}
		for _, a := range agg.Aggs {
			if a.Op == core.AggCount {
				continue
			}
			if p, ok := mapTo(a.Col); ok {
				add(p)
			}
		}
	}
	return need
}

// VecLen returns the number of chain steps compiled to column loops.
func (k *VectorKernel) VecLen() int { return len(k.vec) }

// Len returns the number of steps (narrow chain operators) in the kernel.
func (k *VectorKernel) Len() int { return k.row.Len() }

// Agg returns the absorbed declarative reduce-by's expression (nil for pure
// narrow chains and for a UDF reduce-by). Code that sees a non-nil Agg runs
// the kernel through RunAgg and emits the merged state through
// Finalize.
func (k *VectorKernel) Agg() *core.ReduceExpr {
	if k.rb == nil {
		return nil
	}
	return k.rb.UDF.ReduceExpr
}

// fold returns the absorbed UDF reduce-by (nil for pure narrow chains and
// for a declarative reduce-by), which RunChainParts runs as a keyed fold.
func (k *VectorKernel) fold() *core.Operator {
	if k.rb == nil || k.rb.UDF.ReduceExpr != nil {
		return nil
	}
	return k.rb
}

// Reduces reports whether the chain ends in an absorbed reduce-by,
// declarative or UDF: its output exists only once every partition ran, so
// engines run it over data at rest (RunChainParts).
func (k *VectorKernel) Reduces() bool { return k.rb != nil }

// SetSniff attaches an observer to step i (see FusedKernel.SetSniff); i ==
// Len() addresses the absorbed reduce-by's output. A sniffer on a
// vectorized step disables the column path for the whole kernel — the
// sniffer contract is one call per emitted quantum, which only the row
// kernel provides.
func (k *VectorKernel) SetSniff(i int, fn func(any)) {
	if i == k.row.Len() {
		k.aggSniff = fn
		return
	}
	k.row.SetSniff(i, fn)
}

// Finalize emits the absorbed aggregation's output records from the state
// holding the merged groups, showing each to the aggregation's sniffer.
func (k *VectorKernel) Finalize(st *core.AggState) []any { return k.emit(st.Finalize(nil)) }

// emit hands out the absorbed reduce-by's output records, showing each to
// its sniffer.
func (k *VectorKernel) emit(out []any) []any {
	if k.aggSniff != nil {
		for _, q := range out {
			k.aggSniff(q)
		}
	}
	return out
}

// StepSniff returns step i's observer (nil when unset).
func (k *VectorKernel) StepSniff(i int) func(any) { return k.row.StepSniff(i) }

// Tail returns a kernel for steps[from:], preserving sniffs, the absorbed
// reduce-by, and sharing run-time stats. relstore uses it after pushing
// the head filter into an index scan. The need list is kept as-is: it can
// only over-approximate for the shorter chain, which is safe.
func (k *VectorKernel) Tail(from int) *VectorKernel {
	t := &VectorKernel{row: k.row.Tail(from), rb: k.rb, need: k.need, stats: k.stats, aggSniff: k.aggSniff}
	if from <= len(k.vec) {
		t.vec = k.vec[from:]
	}
	return t
}

// Stats returns the kernel's accumulated vectorized-execution counters.
func (k *VectorKernel) Stats() (batches, rows, fallbacks, aggBatches, aggRows int64) {
	return atomic.LoadInt64(&k.stats.batches),
		atomic.LoadInt64(&k.stats.rows),
		atomic.LoadInt64(&k.stats.fallbacks),
		atomic.LoadInt64(&k.stats.aggBatches),
		atomic.LoadInt64(&k.stats.aggRows)
}

// prefixSniffed reports whether any vectorized step carries a sniffer.
func (k *VectorKernel) prefixSniffed() bool {
	for i := range k.vec {
		if k.row.StepSniff(i) != nil {
			return true
		}
	}
	return false
}

// Selection vectors and intermediate row buffers are pooled: chains run once
// per partition batch, and the buffers die at batch end, which is exactly
// the churn sync.Pool amortizes.
var selPool = sync.Pool{New: func() any { return new([]int) }}
var rowBufPool = sync.Pool{New: func() any { return new([]any) }}

func getSel(n int) *[]int {
	sb := selPool.Get().(*[]int)
	if *sb == nil || cap(*sb) < n { // never nil: a nil selection means "all rows"
		*sb = make([]int, 0, n)
	}
	return sb
}

func putSel(sb *[]int) {
	if sb != nil {
		selPool.Put(sb)
	}
}

func getRowBuf(n int) *[]any {
	rb := rowBufPool.Get().(*[]any)
	if cap(*rb) < n {
		*rb = make([]any, 0, n)
	}
	return rb
}

func putRowBuf(rb *[]any) {
	s := (*rb)[:cap(*rb)]
	for i := range s {
		s[i] = nil // don't pin quanta from the pool
	}
	*rb = s[:0]
	rowBufPool.Put(rb)
}

// plan resolves each vectorized step against a concrete batch: the physical
// column every filter/map reads (projections remap indices), the final
// output projection, and whether every step's type/validity requirements
// hold. ok=false sends the whole partition down the row kernel, which
// reproduces the row path's exact behaviour — including its panics — for
// data the column loops can't honestly execute.
func (k *VectorKernel) plan(b *core.ColumnBatch) (phys []int, final []int, ok bool) {
	phys = make([]int, len(k.vec))
	cur := []int(nil) // nil = identity over the batch's columns
	width := b.Width()
	mapped := func(c int) (int, bool) {
		if c < 0 || c >= width {
			return 0, false
		}
		if cur == nil {
			return c, true
		}
		return cur[c], true
	}
	for i := range k.vec {
		st := &k.vec[i]
		phys[i] = -1
		switch st.kind {
		case core.KindFilter:
			c := st.pred.Col
			if c == core.WholeQuantum {
				if !b.Scalar() {
					return nil, nil, false
				}
				phys[i] = 0
			} else {
				if b.Scalar() {
					return nil, nil, false
				}
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				phys[i] = p
			}
			if !b.VecFilterOK(phys[i], st.pred) {
				return nil, nil, false
			}
		case core.KindMap:
			c := st.expr.Col
			if c == core.WholeQuantum {
				if !b.Scalar() {
					return nil, nil, false
				}
				phys[i] = 0
			} else {
				if b.Scalar() {
					return nil, nil, false
				}
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				phys[i] = p
			}
			if !b.VecMapOK(phys[i], st.expr) {
				return nil, nil, false
			}
			// A projection can alias one physical column under several
			// output columns; an in-place map would then rewrite all of
			// them, where the row path rewrites exactly one field.
			if cur != nil {
				refs := 0
				for _, p := range cur {
					if p == phys[i] {
						refs++
					}
				}
				if refs > 1 {
					return nil, nil, false
				}
			}
		case core.KindProject:
			if st.cols == nil {
				continue // identity
			}
			if b.Scalar() {
				return nil, nil, false
			}
			next := make([]int, len(st.cols))
			for j, c := range st.cols {
				p, ok := mapped(c)
				if !ok {
					return nil, nil, false
				}
				next[j] = p
			}
			cur = next
			width = len(cur)
		}
	}
	return phys, cur, true
}

// runSteps executes the planned vectorized steps over b, ticking counts.
// The returned selection (nil = all rows, in order) is backed by the
// returned pooled buffer; the caller recycles it with putSel once the
// selection is dead.
func (k *VectorKernel) runSteps(b *core.ColumnBatch, phys []int, counts []int64) (sel []int, sb *[]int, live int) {
	live = b.Len()
	for i := range k.vec {
		st := &k.vec[i]
		switch st.kind {
		case core.KindFilter:
			nb := getSel(live)
			ns := b.FilterSel(phys[i], st.pred, sel, (*nb)[:0])
			*nb = ns
			putSel(sb)
			sel, sb = ns, nb
			live = len(ns)
		case core.KindMap:
			b.ApplyNumExpr(phys[i], st.expr, sel)
		}
		if counts != nil {
			counts[i] += int64(live)
		}
	}
	return sel, sb, live
}

// columnPath reports whether the column loops may run at all: there is a
// vectorized prefix and no sniffer needs its steps' quanta one at a time.
func (k *VectorKernel) columnPath() bool {
	return len(k.vec) > 0 && !k.prefixSniffed()
}

// Run executes the kernel over one row partition. The contract is identical
// to FusedKernel.Run: counts[i] accumulates the i-th step's emitted quanta
// and buf, when non-nil, is the reused output buffer. The column path
// engages only when it can reproduce row execution exactly; every other
// partition degrades to the row kernel.
func (k *VectorKernel) Run(part []any, counts []int64, buf []any) []any {
	b, phys, final, ok := k.admit(part, nil)
	if !ok {
		return k.row.Run(part, counts, buf)
	}
	sel, sb, live := k.runSteps(b, phys, counts)
	if buf == nil {
		buf = make([]any, 0, live)
	}
	buf = k.finish(b, sel, final, live, counts, buf)
	putSel(sb)
	b.Recycle()
	return buf
}

// admit builds one row partition's column batch for the column loops,
// building only the columns the plan reads. st, when non-nil, is the
// aggregation state a fully vectorized chain absorbs into: it is preflighted
// (AggState.PlanBatch) so a batch the accumulators would refuse is turned
// away before any count ticks. ok=false sends the partition to the row
// kernel wholesale: no column path, or — counted as a fallback — rows that
// do not batch or a plan the batch fails.
func (k *VectorKernel) admit(part []any, st *core.AggState) (b *core.ColumnBatch, phys, final []int, ok bool) {
	if len(part) == 0 || !k.columnPath() {
		return nil, nil, nil, false
	}
	if b, ok = core.BatchFromRowsNeeding(part, k.need); ok {
		phys, final, ok = k.plan(b)
		if ok && st != nil && len(k.vec) == k.row.Len() {
			ok = st.PlanBatch(b, final)
		}
		if !ok {
			b.Recycle()
		}
	}
	if !ok {
		atomic.AddInt64(&k.stats.fallbacks, 1)
		return nil, nil, nil, false
	}
	atomic.AddInt64(&k.stats.batches, 1)
	atomic.AddInt64(&k.stats.rows, int64(b.Len()))
	return b, phys, final, true
}

// finish emits the vector steps' survivors and pushes them through whatever
// row steps follow the vectorized prefix, appending the result to out.
func (k *VectorKernel) finish(b *core.ColumnBatch, sel, final []int, live int, counts []int64, out []any) []any {
	if len(k.vec) == k.row.Len() {
		return b.EmitRows(out, sel, final)
	}
	mb := getRowBuf(live)
	*mb = b.EmitRows((*mb)[:0], sel, final)
	if counts != nil {
		counts = counts[len(k.vec):]
	}
	out = k.row.Tail(len(k.vec)).Run(*mb, counts, out)
	putRowBuf(mb)
	return out
}

// RunAgg executes the kernel over one row partition and feeds every survivor
// into the grouped accumulator state instead of materializing them, as
// columns when the whole chain vectorized. counts covers the narrow steps
// only; the caller accounts the aggregation's own output cardinality after
// Finalize. The caller must only use RunAgg when Agg() is non-nil.
func (k *VectorKernel) RunAgg(part []any, counts []int64, st *core.AggState) {
	b, phys, final, ok := k.admit(part, st)
	if !ok {
		k.rowAgg(part, counts, st)
		return
	}
	sel, sb, live := k.runSteps(b, phys, counts)
	if len(k.vec) == k.row.Len() && st.AbsorbBatch(b, sel, final) {
		atomic.AddInt64(&k.stats.aggBatches, 1)
		atomic.AddInt64(&k.stats.aggRows, int64(live))
	} else {
		// Partial vectorized prefix — or, unreachably given the preflight, an
		// absorb refusal: emit the survivors and finish row-wise.
		ob := getRowBuf(live)
		*ob = k.finish(b, sel, final, live, counts, (*ob)[:0])
		st.AbsorbRows(*ob)
		putRowBuf(ob)
	}
	putSel(sb)
	b.Recycle() // accumulators copy values out; nothing aliases the buffers
}

// rowAgg is the exact row path: the full narrow chain, then row-at-a-time
// absorption.
func (k *VectorKernel) rowAgg(part []any, counts []int64, st *core.AggState) {
	if k.row.Len() == 0 {
		st.AbsorbRows(part) // a stand-alone reduce-by: nothing to run first
		return
	}
	rb := getRowBuf(len(part))
	*rb = k.row.Run(part, counts, (*rb)[:0])
	st.AbsorbRows(*rb)
	putRowBuf(rb)
}

// foldChunk is how many input rows the kernel runs at a time ahead of a
// keyed fold: the survivors of one chunk, at most a chunk times a flatmap's
// fan-out, are all a chain ending in a UDF reduce-by ever holds. A chain
// with a vectorized prefix runs foldVecChunk rows at a time, so the
// row→column conversion amortizes.
const (
	foldChunk    = 256
	foldVecChunk = 4096
)

// runFold feeds the survivors of one partition into f, chunk after chunk
// through one pooled buffer, so no slice of the chain's whole output is
// built. Each chunk goes through Run, which takes the column path when it
// can.
func (k *VectorKernel) runFold(part []any, counts []int64, f *keyFold) {
	if k.row.Len() == 0 {
		f.add(part) // a stand-alone reduce-by: nothing to run first
		return
	}
	chunk := foldChunk
	if len(k.vec) > 0 {
		chunk = foldVecChunk
	}
	rb := getRowBuf(chunk)
	for lo := 0; lo < len(part); lo += chunk {
		*rb = k.Run(part[lo:min(lo+chunk, len(part))], counts, (*rb)[:0])
		f.add(*rb)
	}
	putRowBuf(rb)
}
