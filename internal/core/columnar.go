package core

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
	// slots back the columns of a batch built from rows, one per column
	// index, and are kept across Refill calls with their buffers.
	slots []colStore
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
	b := new(ColumnBatch)
	if !b.Refill(rows, need) {
		return nil, false
	}
	return b, true
}

// Refill rebuilds the batch in place from rows, as BatchFromRowsNeeding
// builds a new one, reusing the column storage of earlier fills: the vector
// kernels refill one batch for every morsel of a partition, so a partition
// allocates its column buffers once. It reports false, leaving the batch
// empty, when the rows have no columnar representation. A refill overwrites
// the columns of the previous fill, so only a batch's sole owner may refill
// it, after the last read of its columns.
func (b *ColumnBatch) Refill(rows []any, need []int) bool {
	b.n, b.rows, b.scalar, b.Cols = 0, nil, false, b.Cols[:0]
	if len(rows) == 0 {
		return false
	}
	w := 1
	if r, ok := rows[0].(Record); ok {
		w = len(r)
		for _, q := range rows[1:] {
			if rr, ok := q.(Record); !ok || len(rr) != w {
				return false
			}
		}
	} else {
		for _, q := range rows {
			switch q.(type) {
			case int64, float64, string, bool, nil:
			default:
				return false
			}
		}
		b.scalar = true
	}
	b.n, b.rows = len(rows), rows
	b.dirty = reuse(b.dirty, w)
	b.Cols = reuse(b.Cols, w)
	if len(b.slots) < w {
		b.slots = append(b.slots, make([]colStore, w-len(b.slots))...)
	}
	switch {
	case b.scalar:
		b.Cols[0] = b.slots[0].build(rows, -1)
	case need == nil:
		for c := range b.Cols {
			b.Cols[c] = b.slots[c].build(rows, c)
		}
	default:
		for _, c := range need {
			if c >= 0 && c < w && b.Cols[c] == nil {
				b.Cols[c] = b.slots[c].build(rows, c)
			}
		}
	}
	return true
}

// colValue extracts column c of one quantum; c < 0 addresses the bare
// scalar quantum itself.
func colValue(q any, c int) any {
	if c < 0 {
		return q
	}
	return q.(Record)[c]
}

// reuse returns s resized to n zero elements, allocating only when its
// capacity falls short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// colStore is one column index of a batch built from rows: the Column it
// hands out and the buffers behind it, kept across refills. It keeps a
// buffer of every type, so a column whose type differs from one morsel to
// the next reuses its own buffer of each.
type colStore struct {
	col    Column
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	codes  []uint32
	anys   []any
	dict   []string
	idx    map[string]uint32 // dictionary string → code
	valid  Bitset
}

// Recycle drops what the batch holds of its last fill — the rows, and the
// strings and boxed values its buffers name — so that an idle batch pins no
// data; the buffers themselves stay for the next Refill. Only the sole owner
// of a batch built from rows may call it, after the last read of any column.
// Emitted rows stay valid: emission boxes values out of the buffers (or
// reuses the original boxed quanta), never aliasing the typed backing arrays.
func (b *ColumnBatch) Recycle() {
	for i := range b.slots {
		s := &b.slots[i]
		clear(s.strs[:cap(s.strs)])
		clear(s.anys[:cap(s.anys)])
		clear(s.dict[:cap(s.dict)])
		clear(s.idx)
		s.col = Column{}
	}
	clear(b.Cols[:cap(b.Cols)])
	b.Cols, b.rows, b.n = b.Cols[:0], nil, 0
}

// ensureValid materializes the validity bitmap on the first nil seen after
// typed filling began, back-filling the bits of the rows already written
// (all present, or the bitmap would already exist).
func (s *colStore) ensureValid(n, i int) {
	if s.col.Valid == nil {
		s.valid.reset(n)
		for j := 0; j < i; j++ {
			s.valid.Set(j)
		}
		s.col.Valid = &s.valid
	}
}

// build fills the slot's column with column c of rows.
func (s *colStore) build(rows []any, c int) *Column {
	// Single pass: the column type is chosen from the first present value
	// and the typed buffer fills as the scan goes. A later present value of
	// any other kind abandons the buffer and falls to the ColAny escape
	// (mixed numerics, Go ints, foreign types), as does an all-nil column,
	// so emission reproduces the boxed values bit-for-bit.
	n := len(rows)
	first := 0
	for first < n && colValue(rows[first], c) == nil {
		first++
	}
	if first == n {
		return s.anyColumn(rows, c)
	}
	s.col = Column{}
	col := &s.col
	if first > 0 {
		s.ensureValid(n, 0)
	}
	switch colValue(rows[first], c).(type) {
	case int64:
		col.Type = ColInt64
		s.ints = reuse(s.ints, n)
		buf := s.ints
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				s.ensureValid(n, i)
				continue
			}
			x, ok := v.(int64)
			if !ok {
				return s.anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Ints = buf
	case float64:
		col.Type = ColFloat64
		s.floats = reuse(s.floats, n)
		buf := s.floats
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				s.ensureValid(n, i)
				continue
			}
			x, ok := v.(float64)
			if !ok {
				return s.anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Floats = buf
	case string:
		if !s.buildString(rows, c, first) {
			return s.anyColumn(rows, c)
		}
	case bool:
		col.Type = ColBool
		s.bools = reuse(s.bools, n)
		buf := s.bools
		for i := first; i < n; i++ {
			v := colValue(rows[i], c)
			if v == nil {
				s.ensureValid(n, i)
				continue
			}
			x, ok := v.(bool)
			if !ok {
				return s.anyColumn(rows, c)
			}
			buf[i] = x
			if col.Valid != nil {
				col.Valid.Set(i)
			}
		}
		col.Bools = buf
	default:
		return s.anyColumn(rows, c)
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

// buildString fills a ColString column in the same single pass,
// dictionary-encoding while the distinct count stays within the bounds and
// degrading to a plain string buffer when it grows past them. A non-string
// present value reports false and the caller escapes to ColAny.
func (s *colStore) buildString(rows []any, c, first int) bool {
	n := len(rows)
	col := &s.col
	col.Type = ColString
	s.codes = reuse(s.codes, n)
	codes := s.codes
	if s.idx == nil {
		s.idx = make(map[string]uint32, 16)
	}
	clear(s.idx)
	dict, idx := s.dict[:0], s.idx
	var strs []string // non-nil once the dictionary is abandoned
	for i := first; i < n; i++ {
		v := colValue(rows[i], c)
		if v == nil {
			s.ensureValid(n, i)
			continue
		}
		str, ok := v.(string)
		if !ok {
			return false
		}
		if col.Valid != nil {
			col.Valid.Set(i)
		}
		if strs != nil {
			strs[i] = str
			continue
		}
		code, seen := idx[str]
		if !seen {
			if len(dict) >= maxDictSize {
				strs = s.decodePlain(dict, first, i, n)
				strs[i] = str
				continue
			}
			code = uint32(len(dict))
			dict = append(dict, str)
			idx[str] = code
		}
		codes[i] = code
	}
	s.dict = dict // keep what the dictionary grew to
	if strs != nil {
		col.Strs = strs
		return true
	}
	if len(dict)*dictMinRowsPer > n {
		col.Strs = s.decodePlain(dict, first, n, n)
		return true
	}
	col.Dict, col.Codes = dict, codes
	addDictColumn()
	return true
}

// decodePlain materializes rows [first, upto) of a partially
// dictionary-encoded column into the slot's plain length-n string buffer
// (holes stay the empty string, masked by the validity bitmap).
func (s *colStore) decodePlain(dict []string, first, upto, n int) []string {
	s.strs = reuse(s.strs, n)
	for j := first; j < upto; j++ {
		if s.col.Valid == nil || s.col.Valid.Test(j) {
			s.strs[j] = dict[s.codes[j]]
		}
	}
	return s.strs
}

func (s *colStore) anyColumn(rows []any, c int) *Column {
	s.anys = reuse(s.anys, len(rows))
	for i, q := range rows {
		s.anys[i] = colValue(q, c)
	}
	s.col = Column{Type: ColAny, Anys: s.anys}
	return &s.col
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
