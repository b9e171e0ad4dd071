package core

import "sync"

// Columnar data plane. A ColumnBatch holds a batch of data quanta
// column-major: one typed buffer per record field (or one buffer total for
// bare-scalar quanta), with validity bitmaps for typed columns that contain
// nils and an []any escape column for mixed or foreign element types. The
// vectorized fused kernels (internal/platform/driverutil) run declarative
// predicates, numeric maps, and projections as per-column tight loops over
// these buffers with a selection vector, and the binary codec ships batches
// as single column-wise frames (see bincodec.go) so shuffles and DFS files
// move contiguous columns instead of one boxed row at a time.

// ColType identifies the physical representation of one column.
type ColType uint8

// Column physical types.
const (
	ColInt64   ColType = iota // int64 buffer
	ColFloat64                // float64 buffer
	ColString                 // string buffer
	ColBool                   // bool buffer
	ColAny                    // escape: mixed or foreign values, kept boxed
)

func (t ColType) String() string {
	switch t {
	case ColInt64:
		return "int64"
	case ColFloat64:
		return "float64"
	case ColString:
		return "string"
	case ColBool:
		return "bool"
	}
	return "any"
}

// Column is one typed buffer of a ColumnBatch. Exactly one of the value
// slices is populated, selected by Type. Valid, when non-nil, flags the rows
// whose value is present (a cleared bit reads back as nil); ColAny columns
// keep nils inline and never carry a bitmap.
//
// A ColString column is either plain (Strs populated) or dictionary-encoded
// (Dict holds the distinct values in first-occurrence order, Codes one index
// per row, Strs nil). Dictionary columns evaluate string predicates once per
// distinct value instead of once per row, group by integer code, and ship
// over the wire as a single dictionary frame.
type Column struct {
	Type   ColType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Anys   []any
	Valid  *Bitset

	Dict  []string
	Codes []uint32
}

// DictEncoded reports whether the column is a dictionary-encoded string
// column.
func (c *Column) DictEncoded() bool { return c.Type == ColString && c.Dict != nil }

// Str returns row i's string value of a plain or dictionary-encoded string
// column.
func (c *Column) Str(i int) string {
	if c.Dict != nil {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// ColumnBatch is a column-major batch of data quanta: either Record quanta
// of one common width (one column per field) or bare scalar quanta (a single
// column, Scalar() true).
type ColumnBatch struct {
	Cols   []*Column
	n      int
	scalar bool
	// rows keeps the original boxed quanta when the batch was built from
	// rows (nil after wire decode); emission reuses them for columns the
	// kernel never rewrote, so filter-only chains re-box nothing.
	rows  []any
	dirty []bool
}

// Len returns the number of rows in the batch.
func (b *ColumnBatch) Len() int { return b.n }

// Width returns the number of columns.
func (b *ColumnBatch) Width() int { return len(b.Cols) }

// Scalar reports whether the batch holds bare scalar quanta rather than
// Records.
func (b *ColumnBatch) Scalar() bool { return b.scalar }

// BatchFromRows builds a column-major batch from row-major quanta. ok is
// false when the rows have no columnar representation: empty input, Records
// of differing widths, or quantum kinds the batch does not model (KV, Edge,
// Group, slices, mixes of Records and scalars). Within a column, values that
// are not all of one of the four typed kinds take the ColAny escape, and
// nils alongside typed values become validity-bitmap holes, so the
// row→column→row round trip reproduces the boxed values exactly.
func BatchFromRows(rows []any) (*ColumnBatch, bool) { return BatchFromRowsNeeding(rows, nil) }

// BatchFromRowsNeeding is BatchFromRows restricted to the columns a compiled
// vector plan actually reads: with a non-nil need list, only the listed
// column indices get typed buffers (out-of-range entries are ignored; the
// plan's own bounds checks fall back for them) and every other column slot
// stays nil. Unbuilt columns are never dirty, so emission re-boxes nothing —
// a filter chain that drops a wide string column no longer pays to build it.
func BatchFromRowsNeeding(rows []any, need []int) (*ColumnBatch, bool) {
	if len(rows) == 0 {
		return nil, false
	}
	if r, ok := rows[0].(Record); ok {
		w := len(r)
		for _, q := range rows[1:] {
			rr, ok := q.(Record)
			if !ok || len(rr) != w {
				return nil, false
			}
		}
		b := &ColumnBatch{n: len(rows), rows: rows, dirty: make([]bool, w), Cols: make([]*Column, w)}
		if need == nil {
			for c := range b.Cols {
				b.Cols[c] = buildColumn(rows, c)
			}
			return b, true
		}
		for _, c := range need {
			if c >= 0 && c < w && b.Cols[c] == nil {
				b.Cols[c] = buildColumn(rows, c)
			}
		}
		return b, true
	}
	for _, q := range rows {
		switch q.(type) {
		case int64, float64, string, bool, nil:
		default:
			return nil, false
		}
	}
	b := &ColumnBatch{n: len(rows), rows: rows, scalar: true, dirty: make([]bool, 1)}
	b.Cols = []*Column{buildColumn(rows, -1)}
	return b, true
}

// colValue extracts column c of one quantum; c < 0 addresses the bare
// scalar quantum itself.
func colValue(q any, c int) any {
	if c < 0 {
		return q
	}
	return q.(Record)[c]
}

// Column-buffer pools. Kernel-private batches — built by the vectorized
// kernels from one partition's rows and dropped right after emission or
// aggregation absorb — dominate allocation on the hot path, so their typed
// buffers recycle through these pools via (*ColumnBatch).Recycle. A pooled
// buffer is cleared on reuse, restoring the zero-value-in-holes invariant
// that make() used to provide.
var (
	intBufPool   sync.Pool
	floatBufPool sync.Pool
	strBufPool   sync.Pool
	boolBufPool  sync.Pool
	codeBufPool  sync.Pool
	anyBufPool   sync.Pool
)

func getIntBuf(n int) []int64 {
	if p, ok := intBufPool.Get().(*[]int64); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]int64, n)
}

func getFloatBuf(n int) []float64 {
	if p, ok := floatBufPool.Get().(*[]float64); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]float64, n)
}

func getStrBuf(n int) []string {
	if p, ok := strBufPool.Get().(*[]string); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]string, n)
}

func getBoolBuf(n int) []bool {
	if p, ok := boolBufPool.Get().(*[]bool); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]bool, n)
}

func getCodeBuf(n int) []uint32 {
	if p, ok := codeBufPool.Get().(*[]uint32); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]uint32, n)
}

func getAnyBuf(n int) []any {
	if p, ok := anyBufPool.Get().(*[]any); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		return s
	}
	return make([]any, n)
}

func putIntBuf(s []int64) {
	if cap(s) > 0 {
		s = s[:0]
		intBufPool.Put(&s)
	}
}

func putFloatBuf(s []float64) {
	if cap(s) > 0 {
		s = s[:0]
		floatBufPool.Put(&s)
	}
}

func putStrBuf(s []string) {
	if cap(s) > 0 {
		s = s[:cap(s)]
		clear(s) // release the string data promptly
		strBufPool.Put(&s)
	}
}

func putBoolBuf(s []bool) {
	if cap(s) > 0 {
		s = s[:0]
		boolBufPool.Put(&s)
	}
}

func putCodeBuf(s []uint32) {
	if cap(s) > 0 {
		s = s[:0]
		codeBufPool.Put(&s)
	}
}

func putAnyBuf(s []any) {
	if cap(s) > 0 {
		s = s[:cap(s)]
		clear(s) // release the boxed values promptly
		anyBufPool.Put(&s)
	}
}

// Recycle returns the batch's typed column buffers to the build pools and
// empties the batch. Only the sole owner of a batch built privately from
// rows may call it, and only after the last read of any column: recycled
// buffers are handed out to later BatchFromRows calls. Decoded, cached, or
// otherwise shared batches must never be recycled. Emitted rows stay valid —
// emission boxes values out of the buffers (or reuses the original boxed
// quanta), never aliasing the typed backing arrays.
func (b *ColumnBatch) Recycle() {
	for _, col := range b.Cols {
		if col == nil {
			continue
		}
		putIntBuf(col.Ints)
		putFloatBuf(col.Floats)
		putStrBuf(col.Strs)
		putBoolBuf(col.Bools)
		putCodeBuf(col.Codes)
		putAnyBuf(col.Anys)
		col.Ints, col.Floats, col.Strs, col.Bools, col.Codes, col.Anys = nil, nil, nil, nil, nil, nil
		col.Dict, col.Valid = nil, nil
	}
	b.Cols, b.rows, b.dirty, b.n = nil, nil, nil, 0
}

// ensureValid materializes the validity bitmap on the first nil seen after
// typed filling began, back-filling the bits of the rows already written
// (all present, or the bitmap would already exist).
func ensureValid(col *Column, n, i int) {
	if col.Valid == nil {
		col.Valid = NewBitset(n)
		for j := 0; j < i; j++ {
			col.Valid.Set(j)
		}
	}
}

func buildColumn(rows []any, c int) *Column {
	// Single pass: the column type is chosen from the first present value
	// and the typed buffer fills as the scan goes. A later present value of
	// any other kind abandons the buffer back to its pool and falls to the
	// ColAny escape (mixed numerics, Go ints, foreign types), as does an
	// all-nil column, so emission reproduces the boxed values bit-for-bit.
	n := len(rows)
	first := 0
	for first < n && colValue(rows[first], c) == nil {
		first++
	}
	if first == n {
		return anyColumn(rows, c)
	}
	col := &Column{}
	if first > 0 {
		col.Valid = NewBitset(n)
	}
	switch colValue(rows[first], c).(type) {
	case int64:
		col.Type = ColInt64
		buf := getIntBuf(n)
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				ensureValid(col, n, i)
				continue
			}
			x, ok := v.(int64)
			if !ok {
				putIntBuf(buf)
				return anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Ints = buf
	case float64:
		col.Type = ColFloat64
		buf := getFloatBuf(n)
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				ensureValid(col, n, i)
				continue
			}
			x, ok := v.(float64)
			if !ok {
				putFloatBuf(buf)
				return anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Floats = buf
	case string:
		if !buildStringColumn(col, rows, c, first) {
			return anyColumn(rows, c)
		}
	case bool:
		col.Type = ColBool
		buf := getBoolBuf(n)
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				ensureValid(col, n, i)
				continue
			}
			x, ok := v.(bool)
			if !ok {
				putBoolBuf(buf)
				return anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Bools = buf
	default:
		return anyColumn(rows, c)
	}
	return col
}

// Dictionary encoding engages while the distinct count stays below both
// bounds: a small absolute cap (keeps per-distinct predicate evaluation and
// the wire-frame dictionary cheap) and half the row count (below which plain
// storage is denser anyway).
const (
	maxDictSize    = 256
	dictMinRowsPer = 2
)

// buildStringColumn fills a ColString column in the same single pass,
// dictionary-encoding while the distinct count stays within the bounds and
// degrading to a plain string buffer when it grows past them. A non-string
// present value reports false and the caller escapes to ColAny.
func buildStringColumn(col *Column, rows []any, c, first int) bool {
	n := len(rows)
	col.Type = ColString
	codes := getCodeBuf(n)
	dict := make([]string, 0, 16)
	idx := make(map[string]uint32, 16)
	var strs []string // non-nil once the dictionary is abandoned
	for i := first; i < n; i++ {
		v := colValue(rows[i], c)
		if v == nil {
			ensureValid(col, n, i)
			continue
		}
		s, ok := v.(string)
		if !ok {
			putCodeBuf(codes)
			putStrBuf(strs)
			return false
		}
		if col.Valid != nil {
			col.Valid.Set(i)
		}
		if strs != nil {
			strs[i] = s
			continue
		}
		code, seen := idx[s]
		if !seen {
			if len(dict) >= maxDictSize {
				strs = decodePlain(col, codes, dict, first, i, n)
				putCodeBuf(codes)
				strs[i] = s
				continue
			}
			code = uint32(len(dict))
			dict = append(dict, s)
			idx[s] = code
		}
		codes[i] = code
	}
	if strs != nil {
		col.Strs = strs
		return true
	}
	if len(dict)*dictMinRowsPer > n {
		col.Strs = decodePlain(col, codes, dict, first, n, n)
		putCodeBuf(codes)
		return true
	}
	col.Dict, col.Codes = dict, codes
	addDictColumn()
	return true
}

// decodePlain materializes rows [first, upto) of a partially
// dictionary-encoded column into a plain length-n string buffer (holes stay
// the empty string, masked by the validity bitmap).
func decodePlain(col *Column, codes []uint32, dict []string, first, upto, n int) []string {
	strs := getStrBuf(n)
	for j := first; j < upto; j++ {
		if col.Valid == nil || col.Valid.Test(j) {
			strs[j] = dict[codes[j]]
		}
	}
	return strs
}

func anyColumn(rows []any, c int) *Column {
	col := &Column{Type: ColAny, Anys: getAnyBuf(len(rows))}
	for i, q := range rows {
		col.Anys[i] = colValue(q, c)
	}
	return col
}

// AppendRows appends every row of the batch to dst in row-major form.
func (b *ColumnBatch) AppendRows(dst []any) []any { return b.EmitRows(dst, nil, nil) }

// EmitRows appends the selected rows (sel nil = all, in order) to dst,
// projected to the proj columns (nil = every column in order). Columns the
// kernel never rewrote re-emit the original boxed values; a clean batch with
// identity projection re-emits the original quanta without allocating.
func (b *ColumnBatch) EmitRows(dst []any, sel []int, proj []int) []any {
	if b.scalar {
		if sel == nil {
			for i := 0; i < b.n; i++ {
				dst = append(dst, b.value(0, i))
			}
			return dst
		}
		for _, i := range sel {
			dst = append(dst, b.value(0, i))
		}
		return dst
	}
	if proj == nil && b.rows != nil && !b.anyDirty() {
		if sel == nil {
			return append(dst, b.rows...)
		}
		for _, i := range sel {
			dst = append(dst, b.rows[i])
		}
		return dst
	}
	cols := proj
	if cols == nil {
		cols = make([]int, len(b.Cols))
		for c := range cols {
			cols[c] = c
		}
	}
	if sel == nil {
		for i := 0; i < b.n; i++ {
			dst = append(dst, b.emitRecord(i, cols))
		}
		return dst
	}
	for _, i := range sel {
		dst = append(dst, b.emitRecord(i, cols))
	}
	return dst
}

func (b *ColumnBatch) emitRecord(i int, cols []int) Record {
	rec := make(Record, len(cols))
	for j, c := range cols {
		rec[j] = b.value(c, i)
	}
	return rec
}

func (b *ColumnBatch) anyDirty() bool {
	for _, d := range b.dirty {
		if d {
			return true
		}
	}
	return false
}

// value returns the boxed value of column c at row i, reusing the original
// boxed value when the column was never rewritten.
func (b *ColumnBatch) value(c, i int) any {
	if b.rows != nil && !b.dirty[c] {
		if b.scalar {
			return b.rows[i]
		}
		return b.rows[i].(Record)[c]
	}
	return b.boxed(c, i)
}

// boxed boxes column c's row-i value from the typed buffers.
func (b *ColumnBatch) boxed(c, i int) any {
	col := b.Cols[c]
	if col.Valid != nil && !col.Valid.Test(i) {
		return nil
	}
	switch col.Type {
	case ColInt64:
		return col.Ints[i]
	case ColFloat64:
		return col.Floats[i]
	case ColString:
		return col.Str(i)
	case ColBool:
		return col.Bools[i]
	default:
		return col.Anys[i]
	}
}

// --- vectorized column operators -----------------------------------------

// predMask decomposes a comparison operator into which of the three
// orderings (<, ==, >) satisfy it, so filter loops test without branching on
// the operator per row. An unknown operator keeps nothing, like Eval.
func predMask(op PredOp) (lt, eq, gt bool) {
	switch op {
	case PredEq:
		return false, true, false
	case PredLt:
		return true, false, false
	case PredLe:
		return true, true, false
	case PredGt:
		return false, false, true
	case PredGe:
		return false, true, true
	}
	return false, false, false
}

// VecFilterOK reports whether FilterSel evaluates p against column c with
// semantics identical to the row path: string predicates need a fully-valid
// string column, anything else a fully-valid numeric column. Callers fall
// back to the row kernel otherwise (which also reproduces the row path's
// panics for genuinely ill-typed data).
func (b *ColumnBatch) VecFilterOK(c int, p *Predicate) bool {
	if c < 0 || c >= len(b.Cols) {
		return false
	}
	col := b.Cols[c]
	if col == nil || col.Valid != nil {
		return false
	}
	if _, ok := p.Value.(string); ok {
		return col.Type == ColString
	}
	return col.Type == ColInt64 || col.Type == ColFloat64
}

// FilterSel evaluates p against column c for the rows in sel (nil = all) and
// appends the surviving row indices to out. Numeric comparisons run in the
// float64 domain exactly like Record.Float-based evaluation. Callers must
// have checked VecFilterOK.
func (b *ColumnBatch) FilterSel(c int, p *Predicate, sel, out []int) []int {
	col := b.Cols[c]
	lt, eq, gt := predMask(p.Op)
	if v, ok := p.Value.(string); ok {
		if col.Dict != nil {
			// Dictionary column: evaluate the predicate once per distinct
			// value, then the per-row pass is a table lookup over codes.
			match := make([]bool, len(col.Dict))
			for d, s := range col.Dict {
				if p.Op == PredPrefix {
					match[d] = len(s) >= len(v) && s[:len(v)] == v
				} else {
					match[d] = (lt && s < v) || (eq && s == v) || (gt && s > v)
				}
			}
			xs := col.Codes
			if sel == nil {
				for i := 0; i < b.n; i++ {
					if match[xs[i]] {
						out = append(out, i)
					}
				}
				return out
			}
			for _, i := range sel {
				if match[xs[i]] {
					out = append(out, i)
				}
			}
			return out
		}
		xs := col.Strs
		if p.Op == PredPrefix {
			if sel == nil {
				for i := 0; i < b.n; i++ {
					if s := xs[i]; len(s) >= len(v) && s[:len(v)] == v {
						out = append(out, i)
					}
				}
				return out
			}
			for _, i := range sel {
				if s := xs[i]; len(s) >= len(v) && s[:len(v)] == v {
					out = append(out, i)
				}
			}
			return out
		}
		if sel == nil {
			for i := 0; i < b.n; i++ {
				if s := xs[i]; (lt && s < v) || (eq && s == v) || (gt && s > v) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if s := xs[i]; (lt && s < v) || (eq && s == v) || (gt && s > v) {
				out = append(out, i)
			}
		}
		return out
	}
	w := numOf(p.Value)
	if col.Type == ColInt64 {
		xs := col.Ints
		if sel == nil {
			for i := 0; i < b.n; i++ {
				if x := float64(xs[i]); (lt && x < w) || (eq && x == w) || (gt && x > w) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if x := float64(xs[i]); (lt && x < w) || (eq && x == w) || (gt && x > w) {
				out = append(out, i)
			}
		}
		return out
	}
	xs := col.Floats
	if sel == nil {
		for i := 0; i < b.n; i++ {
			if x := xs[i]; (lt && x < w) || (eq && x == w) || (gt && x > w) {
				out = append(out, i)
			}
		}
		return out
	}
	for _, i := range sel {
		if x := xs[i]; (lt && x < w) || (eq && x == w) || (gt && x > w) {
			out = append(out, i)
		}
	}
	return out
}

// VecMapOK reports whether ApplyNumExpr can run e against column c with
// row-path-identical semantics: a fully-valid numeric column and a numeric
// operand.
func (b *ColumnBatch) VecMapOK(c int, e *MapExpr) bool {
	if c < 0 || c >= len(b.Cols) {
		return false
	}
	col := b.Cols[c]
	if col == nil || col.Valid != nil {
		return false
	}
	if col.Type != ColInt64 && col.Type != ColFloat64 {
		return false
	}
	_, ok := toFloat(e.Operand)
	return ok
}

// ApplyNumExpr rewrites column c in place for the rows in sel (nil = all)
// and marks the column dirty. Arithmetic follows MapExpr.Apply: int64
// columns stay integral under an integral operand and migrate to float64
// otherwise. Rows outside sel are dead (already filtered out) and may be
// rewritten freely. Callers must have checked VecMapOK.
func (b *ColumnBatch) ApplyNumExpr(c int, e *MapExpr, sel []int) {
	col := b.Cols[c]
	b.dirty[c] = true
	if col.Type == ColInt64 {
		if w, ok := intOperand(e.Operand); ok {
			xs := col.Ints
			switch e.Op {
			case NumAdd:
				if sel == nil {
					for i := range xs {
						xs[i] += w
					}
				} else {
					for _, i := range sel {
						xs[i] += w
					}
				}
			case NumSub:
				if sel == nil {
					for i := range xs {
						xs[i] -= w
					}
				} else {
					for _, i := range sel {
						xs[i] -= w
					}
				}
			case NumMul:
				if sel == nil {
					for i := range xs {
						xs[i] *= w
					}
				} else {
					for _, i := range sel {
						xs[i] *= w
					}
				}
			default:
				panic("core: map expr " + e.String() + ": unknown op")
			}
			return
		}
		// Integral column, fractional operand: the result domain is float64,
		// so migrate the whole column (dead rows included; they are never
		// emitted).
		fs := make([]float64, len(col.Ints))
		for i, v := range col.Ints {
			fs[i] = float64(v)
		}
		col.Ints, col.Floats, col.Type = nil, fs, ColFloat64
	}
	w, _ := toFloat(e.Operand)
	xs := col.Floats
	switch e.Op {
	case NumAdd:
		if sel == nil {
			for i := range xs {
				xs[i] += w
			}
		} else {
			for _, i := range sel {
				xs[i] += w
			}
		}
	case NumSub:
		if sel == nil {
			for i := range xs {
				xs[i] -= w
			}
		} else {
			for _, i := range sel {
				xs[i] -= w
			}
		}
	case NumMul:
		if sel == nil {
			for i := range xs {
				xs[i] *= w
			}
		} else {
			for _, i := range sel {
				xs[i] *= w
			}
		}
	default:
		panic("core: map expr " + e.String() + ": unknown op")
	}
}
