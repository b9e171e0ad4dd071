package core

import (
	"fmt"
	"math"
)

// Grouped-aggregation state for declarative reduce-bys (ReduceExpr). One
// AggState is the single arithmetic authority for both execution paths: the
// row-at-a-time fold absorbs boxed quanta one by one, the vectorized kernel
// absorbs whole ColumnBatches through typed per-column loops — and both
// mutate the same accumulator lanes in the same row order, so toggling the
// columnar plane can never change sink output.
//
// Aggregation is two-phase, mirroring the engines' distributed shapes:
// absorb rows → Partials() emits one mergeable record per group; a second
// state absorbs partials (AbsorbPartial) after an exchange and Finalize()
// emits the output records. Single-node engines skip the middle and call
// Finalize on the absorbing state directly. Groups are tracked in
// first-occurrence order, the order every emission uses.

// aggLane holds one aggregate's accumulators across all groups, indexed by
// group ordinal. Sum/min/max start in the int64 lane and migrate a group to
// the float64 lane when a non-int64 numeric value arrives (the MapExpr
// domain rule); count lives in the int lane; avg keeps a float64 sum plus a
// row count.
type aggLane struct {
	op     AggOp
	ints   []int64
	floats []float64
	counts []int64
	isf    []bool
}

func (l *aggLane) grow() {
	switch l.op {
	case AggSum, AggCount:
		l.ints = append(l.ints, 0)
	case AggMin:
		l.ints = append(l.ints, math.MaxInt64)
	case AggMax:
		l.ints = append(l.ints, math.MinInt64)
	}
	switch l.op {
	case AggSum, AggMin, AggMax:
		l.floats = append(l.floats, 0)
		l.isf = append(l.isf, false)
	case AggAvg:
		l.floats = append(l.floats, 0)
		l.counts = append(l.counts, 0)
	}
}

// migrate moves group g's accumulator into the float64 domain. The min/max
// int sentinels (±MaxInt64) are absorbing under min/max, so converting them
// preserves the running result.
func (l *aggLane) migrate(g int) {
	if !l.isf[g] {
		l.floats[g] = float64(l.ints[g])
		l.isf[g] = true
	}
}

// updateInt absorbs one int64 value into group g.
func (l *aggLane) updateInt(g int, v int64) {
	switch l.op {
	case AggSum:
		if l.isf[g] {
			l.floats[g] += float64(v)
		} else {
			l.ints[g] += v
		}
	case AggCount:
		l.ints[g]++
	case AggMin:
		if l.isf[g] {
			if f := float64(v); f < l.floats[g] {
				l.floats[g] = f
			}
		} else if v < l.ints[g] {
			l.ints[g] = v
		}
	case AggMax:
		if l.isf[g] {
			if f := float64(v); f > l.floats[g] {
				l.floats[g] = f
			}
		} else if v > l.ints[g] {
			l.ints[g] = v
		}
	case AggAvg:
		l.floats[g] += float64(v)
		l.counts[g]++
	}
}

// updateFloat absorbs one float64-domain value into group g, migrating
// sum/min/max accumulators out of the int64 domain first.
func (l *aggLane) updateFloat(g int, f float64) {
	switch l.op {
	case AggSum:
		l.migrate(g)
		l.floats[g] += f
	case AggCount:
		l.ints[g]++
	case AggMin:
		l.migrate(g)
		if f < l.floats[g] {
			l.floats[g] = f
		}
	case AggMax:
		l.migrate(g)
		if f > l.floats[g] {
			l.floats[g] = f
		}
	case AggAvg:
		l.floats[g] += f
		l.counts[g]++
	}
}

// update absorbs one boxed value into group g, panicking for non-numeric
// values exactly like Record.Float would in a hand-written reduce UDF.
func (l *aggLane) update(g int, e *ReduceExpr, v any) {
	if l.op == AggCount {
		l.ints[g]++
		return
	}
	if iv, ok := v.(int64); ok {
		l.updateInt(g, iv)
		return
	}
	f, ok := toFloat(v)
	if !ok {
		panic(fmt.Sprintf("core: reduce expr %s: %s value %T is not numeric", e, l.op, v))
	}
	l.updateFloat(g, f)
}

// partialWidth is the number of partial-record fields the lane contributes.
func (l *aggLane) partialWidth() int {
	if l.op == AggAvg {
		return 2
	}
	return 1
}

// AggState accumulates a ReduceExpr's groups. It is not safe for concurrent
// use; parallel engines keep one state per partition and merge partials.
type AggState struct {
	e     *ReduceExpr
	keys  []any // boxed group key per group: bare value, or Record for multi-column keys
	lanes []aggLane

	// Typed group lookup tables, split by the key's dynamic type so lookups
	// stay unboxed; dynamic-type identity matches interface-key map
	// semantics (int64(1) and float64(1) are distinct groups either way).
	intKeys   map[int64]int
	floatKeys map[float64]int
	strKeys   map[string]int
	boolKeys  map[bool]int
	anyKeys   map[any]int // multi-column and foreign-typed keys, via GroupKey

	// Per-batch scratch, reused across the batches (the morsels of a
	// partition) one state absorbs: row→group ordinals, the resolved key
	// and aggregate columns, and a dictionary key column's code→group map.
	groupScratch []int
	keyCols      []*Column
	aggCols      []*Column
	codeGroups   []int
}

// NewAggState creates an empty accumulator for e.
func NewAggState(e *ReduceExpr) *AggState {
	st := &AggState{e: e, lanes: make([]aggLane, len(e.Aggs))}
	for i, a := range e.Aggs {
		st.lanes[i].op = a.Op
	}
	return st
}

// SwapGroupScratch makes buf the row→group scratch AbsorbBatch uses (and
// grows) and returns the one st held, so a caller that runs many states —
// one per partition — can lend each the same buffer and take it back.
func (st *AggState) SwapGroupScratch(buf []int) []int {
	old := st.groupScratch
	st.groupScratch = buf
	return old
}

// Groups returns the number of distinct groups absorbed so far.
func (st *AggState) Groups() int { return len(st.keys) }

// newGroup appends a group keyed by the boxed key and returns its ordinal.
func (st *AggState) newGroup(key any) int {
	g := len(st.keys)
	st.keys = append(st.keys, key)
	for i := range st.lanes {
		st.lanes[i].grow()
	}
	return g
}

func (st *AggState) intGroup(k int64) int {
	if st.intKeys == nil {
		st.intKeys = map[int64]int{}
	}
	g, ok := st.intKeys[k]
	if !ok {
		g = st.newGroup(k)
		st.intKeys[k] = g
	}
	return g
}

func (st *AggState) floatGroup(k float64) int {
	if st.floatKeys == nil {
		st.floatKeys = map[float64]int{}
	}
	g, ok := st.floatKeys[k]
	if !ok {
		g = st.newGroup(k)
		st.floatKeys[k] = g
	}
	return g
}

func (st *AggState) strGroup(k string) int {
	if st.strKeys == nil {
		st.strKeys = map[string]int{}
	}
	g, ok := st.strKeys[k]
	if !ok {
		g = st.newGroup(k)
		st.strKeys[k] = g
	}
	return g
}

func (st *AggState) boolGroup(k bool) int {
	if st.boolKeys == nil {
		st.boolKeys = map[bool]int{}
	}
	g, ok := st.boolKeys[k]
	if !ok {
		g = st.newGroup(k)
		st.boolKeys[k] = g
	}
	return g
}

func (st *AggState) anyGroup(key any) int {
	if st.anyKeys == nil {
		st.anyKeys = map[any]int{}
	}
	gk := GroupKey(key)
	g, ok := st.anyKeys[gk]
	if !ok {
		g = st.newGroup(key)
		st.anyKeys[gk] = g
	}
	return g
}

// groupOf resolves the group ordinal for one boxed key value, creating the
// group on first sight.
func (st *AggState) groupOf(key any) int {
	switch k := key.(type) {
	case int64:
		return st.intGroup(k)
	case float64:
		return st.floatGroup(k)
	case string:
		return st.strGroup(k)
	case bool:
		return st.boolGroup(k)
	default:
		return st.anyGroup(key)
	}
}

// keyOfRow extracts the boxed group key from one input record.
func (st *AggState) keyOfRow(r Record) any {
	cols := st.e.GroupCols
	if len(cols) == 1 {
		return r[cols[0]]
	}
	k := make(Record, len(cols))
	for i, c := range cols {
		k[i] = r[c]
	}
	return k
}

// AbsorbRow folds one input quantum into the state — the row-at-a-time
// execution of the reduce expression. Non-Record quanta panic like any
// reduce UDF asserting its input type.
func (st *AggState) AbsorbRow(q any) {
	r, ok := q.(Record)
	if !ok {
		panic(fmt.Sprintf("core: reduce expr %s: quantum %T is not a Record", st.e, q))
	}
	g := st.groupOf(st.keyOfRow(r))
	for i := range st.lanes {
		l := &st.lanes[i]
		if l.op == AggCount {
			l.ints[g]++
			continue
		}
		l.update(g, st.e, r[st.e.Aggs[i].Col])
	}
}

// AbsorbRows folds a slice of quanta in order.
func (st *AggState) AbsorbRows(rows []any) {
	for _, q := range rows {
		st.AbsorbRow(q)
	}
}

// PlanBatch reports whether AbsorbBatch is guaranteed to accept the batch
// under proj for any selection drawn from it. It re-runs AbsorbBatch's
// column resolution and typing checks, but scans validity over every row
// rather than a selection — conservative (a hole a filter would drop still
// rejects the batch) and sound, since rejection just means the exact row
// path runs instead. Kernels call it before mutating the batch in place, so
// a batch that would be refused falls back before any step counts tick.
func (st *AggState) PlanBatch(b *ColumnBatch, proj []int) bool {
	if b == nil || b.scalar {
		return false
	}
	e := st.e
	phys := func(c int) *Column {
		if proj != nil {
			if c >= len(proj) {
				return nil
			}
			c = proj[c]
		}
		if c < 0 || c >= len(b.Cols) {
			return nil
		}
		return b.Cols[c]
	}
	whole := func(col *Column) bool {
		if col.Valid == nil {
			return true
		}
		for i := 0; i < b.n; i++ {
			if !col.Valid.Test(i) {
				return false
			}
		}
		return true
	}
	for _, c := range e.GroupCols {
		col := phys(c)
		if col == nil || col.Type == ColAny || !whole(col) {
			return false
		}
	}
	for _, a := range e.Aggs {
		if a.Op == AggCount {
			continue
		}
		col := phys(a.Col)
		if col == nil || (col.Type != ColInt64 && col.Type != ColFloat64) || !whole(col) {
			return false
		}
	}
	return true
}

// AbsorbBatch absorbs the selected rows of a ColumnBatch (sel nil = all)
// through typed per-column loops. proj maps the reduce expression's logical
// record fields to physical batch columns (nil = identity) — the fused
// chain's final projection. It returns false, leaving the state untouched,
// when the batch cannot reproduce row semantics exactly (scalar quanta,
// escape or ill-typed columns, validity holes among the selected rows);
// callers then absorb the emitted rows instead, which also reproduces the
// row path's panics for genuinely non-numeric data.
func (st *AggState) AbsorbBatch(b *ColumnBatch, sel []int, proj []int) bool {
	if b == nil || b.scalar {
		return false
	}
	e := st.e
	phys := func(c int) *Column {
		if proj != nil {
			if c >= len(proj) {
				return nil
			}
			c = proj[c]
		}
		if c < 0 || c >= len(b.Cols) {
			return nil
		}
		return b.Cols[c]
	}
	st.keyCols = reuse(st.keyCols, len(e.GroupCols))
	keyCols := st.keyCols
	for i, c := range e.GroupCols {
		col := phys(c)
		if col == nil || col.Type == ColAny {
			return false
		}
		keyCols[i] = col
	}
	st.aggCols = reuse(st.aggCols, len(e.Aggs))
	aggCols := st.aggCols
	for i, a := range e.Aggs {
		if a.Op == AggCount {
			continue
		}
		col := phys(a.Col)
		if col == nil || (col.Type != ColInt64 && col.Type != ColFloat64) {
			return false
		}
		aggCols[i] = col
	}
	// Validity awareness: holes confined to dead (unselected) rows are fine;
	// a hole among the selected rows means a nil the row path would see, so
	// the whole batch falls back before any state is touched.
	checkValid := func(col *Column) bool {
		if col.Valid == nil {
			return true
		}
		if sel == nil {
			for i := 0; i < b.n; i++ {
				if !col.Valid.Test(i) {
					return false
				}
			}
			return true
		}
		for _, i := range sel {
			if !col.Valid.Test(i) {
				return false
			}
		}
		return true
	}
	for _, col := range keyCols {
		if !checkValid(col) {
			return false
		}
	}
	for _, col := range aggCols {
		if col != nil && !checkValid(col) {
			return false
		}
	}

	// Pass 1: resolve every selected row to its group ordinal, one typed
	// column scan. Pass 2: per aggregate, one tight accumulator loop.
	nsel := b.n
	if sel != nil {
		nsel = len(sel)
	}
	if cap(st.groupScratch) < nsel {
		// Sized to the batch, not the selection, which differs from one
		// morsel to the next: one allocation serves every morsel.
		st.groupScratch = make([]int, b.n)
	}
	groups := st.groupScratch[:nsel]
	if len(keyCols) == 1 {
		st.groupPass(keyCols[0], sel, b.n, groups)
	} else {
		for k := 0; k < nsel; k++ {
			i := k
			if sel != nil {
				i = sel[k]
			}
			key := make(Record, len(keyCols))
			for j, col := range keyCols {
				key[j] = colBoxed(col, i)
			}
			groups[k] = st.anyGroup(key)
		}
	}
	for li := range st.lanes {
		l := &st.lanes[li]
		if l.op == AggCount {
			for _, g := range groups {
				l.ints[g]++
			}
			continue
		}
		col := aggCols[li]
		if col.Type == ColInt64 {
			xs := col.Ints
			if sel == nil {
				for i, g := range groups {
					l.updateInt(g, xs[i])
				}
			} else {
				for k, g := range groups {
					l.updateInt(g, xs[sel[k]])
				}
			}
			continue
		}
		xs := col.Floats
		if sel == nil {
			for i, g := range groups {
				l.updateFloat(g, xs[i])
			}
		} else {
			for k, g := range groups {
				l.updateFloat(g, xs[sel[k]])
			}
		}
	}
	return true
}

// groupPass fills groups[k] with the ordinal of selected row k's key, scanning
// one typed key column.
func (st *AggState) groupPass(col *Column, sel []int, n int, groups []int) {
	switch col.Type {
	case ColInt64:
		xs := col.Ints
		if sel == nil {
			for i := 0; i < n; i++ {
				groups[i] = st.intGroup(xs[i])
			}
		} else {
			for k, i := range sel {
				groups[k] = st.intGroup(xs[i])
			}
		}
	case ColFloat64:
		xs := col.Floats
		if sel == nil {
			for i := 0; i < n; i++ {
				groups[i] = st.floatGroup(xs[i])
			}
		} else {
			for k, i := range sel {
				groups[k] = st.floatGroup(xs[i])
			}
		}
	case ColString:
		if col.Dict != nil {
			// Dictionary keys: resolve each distinct code to its group once,
			// then the per-row pass is an int slab lookup.
			st.codeGroups = reuse(st.codeGroups, len(col.Dict))
			codeGroup := st.codeGroups
			for i := range codeGroup {
				codeGroup[i] = -1
			}
			xs := col.Codes
			if sel == nil {
				for i := 0; i < n; i++ {
					g := codeGroup[xs[i]]
					if g < 0 {
						g = st.strGroup(col.Dict[xs[i]])
						codeGroup[xs[i]] = g
					}
					groups[i] = g
				}
			} else {
				for k, i := range sel {
					g := codeGroup[xs[i]]
					if g < 0 {
						g = st.strGroup(col.Dict[xs[i]])
						codeGroup[xs[i]] = g
					}
					groups[k] = g
				}
			}
			return
		}
		xs := col.Strs
		if sel == nil {
			for i := 0; i < n; i++ {
				groups[i] = st.strGroup(xs[i])
			}
		} else {
			for k, i := range sel {
				groups[k] = st.strGroup(xs[i])
			}
		}
	case ColBool:
		xs := col.Bools
		if sel == nil {
			for i := 0; i < n; i++ {
				groups[i] = st.boolGroup(xs[i])
			}
		} else {
			for k, i := range sel {
				groups[k] = st.boolGroup(xs[i])
			}
		}
	}
}

// keyFields appends group g's key values to dst.
func (st *AggState) keyFields(dst Record, g int) Record {
	if len(st.e.GroupCols) == 1 {
		return append(dst, st.keys[g])
	}
	return append(dst, st.keys[g].(Record)...)
}

// Partials appends one mergeable partial record per group, in
// first-occurrence order: [group values..., lane fields...]. Sum/min/max
// contribute their current int64 or float64 accumulator, count its int64,
// avg a (float64 sum, int64 count) pair.
func (st *AggState) Partials(dst []any) []any {
	k := len(st.e.GroupCols)
	for g := range st.keys {
		rec := make(Record, 0, k+st.partialWidth())
		rec = st.keyFields(rec, g)
		for li := range st.lanes {
			l := &st.lanes[li]
			switch l.op {
			case AggSum, AggMin, AggMax:
				if l.isf[g] {
					rec = append(rec, l.floats[g])
				} else {
					rec = append(rec, l.ints[g])
				}
			case AggCount:
				rec = append(rec, l.ints[g])
			case AggAvg:
				rec = append(rec, l.floats[g], l.counts[g])
			}
		}
		dst = append(dst, rec)
	}
	return dst
}

func (st *AggState) partialWidth() int {
	w := 0
	for i := range st.lanes {
		w += st.lanes[i].partialWidth()
	}
	return w
}

// AbsorbPartial merges one partial record (as emitted by Partials) into the
// state — the second aggregation phase, run after an exchange.
func (st *AggState) AbsorbPartial(q any) {
	r, ok := q.(Record)
	if !ok {
		panic(fmt.Sprintf("core: reduce expr %s: partial %T is not a Record", st.e, q))
	}
	k := len(st.e.GroupCols)
	var key any
	if k == 1 {
		key = r[0]
	} else {
		key = Record(r[:k:k])
	}
	g := st.groupOf(key)
	f := k
	for li := range st.lanes {
		l := &st.lanes[li]
		switch l.op {
		case AggSum, AggMin, AggMax:
			l.update(g, st.e, r[f])
			f++
		case AggCount:
			l.ints[g] += r[f].(int64)
			f++
		case AggAvg:
			l.floats[g] += r[f].(float64)
			l.counts[g] += r[f+1].(int64)
			f += 2
		}
	}
}

// AbsorbPartials merges a slice of partial records in order.
func (st *AggState) AbsorbPartials(rows []any) {
	for _, q := range rows {
		st.AbsorbPartial(q)
	}
}

// Finalize appends one output record per group in first-occurrence order:
// [group values..., one value per aggregate], resolving avg to sum/count.
func (st *AggState) Finalize(dst []any) []any {
	k := len(st.e.GroupCols)
	for g := range st.keys {
		rec := make(Record, 0, k+len(st.lanes))
		rec = st.keyFields(rec, g)
		for li := range st.lanes {
			l := &st.lanes[li]
			switch l.op {
			case AggSum, AggMin, AggMax:
				if l.isf[g] {
					rec = append(rec, l.floats[g])
				} else {
					rec = append(rec, l.ints[g])
				}
			case AggCount:
				rec = append(rec, l.ints[g])
			case AggAvg:
				rec = append(rec, l.floats[g]/float64(l.counts[g]))
			}
		}
		dst = append(dst, rec)
	}
	return dst
}

// colBoxed boxes one value out of a typed column (validity already checked
// by the caller).
func colBoxed(col *Column, i int) any {
	switch col.Type {
	case ColInt64:
		return col.Ints[i]
	case ColFloat64:
		return col.Floats[i]
	case ColString:
		if col.Dict != nil {
			return col.Dict[col.Codes[i]]
		}
		return col.Strs[i]
	case ColBool:
		return col.Bools[i]
	default:
		return col.Anys[i]
	}
}
