package core

// Batch-native data movement. A SegmentedDataset carries quanta as a
// sequence of segments — runs of boxed rows interleaved with ColumnBatches
// kept column-major — so data decoded from batch frames (shuffle files, DFS
// blocks, spill channels) reaches the vectorized kernels without a
// row round-trip: no per-row boxing at decode, no re-derivation of column
// buffers at kernel entry. It implements Dataset (iteration expands batches
// lazily), so every consumer that only understands rows keeps working;
// batch-aware engines type-assert and walk Segments() instead.

// Segment is one contiguous run of a SegmentedDataset: either boxed rows or
// a column batch carried natively. Exactly one of the fields is set.
type Segment struct {
	Rows  []any
	Batch *ColumnBatch
}

// Len returns the number of quanta in the segment.
func (s Segment) Len() int {
	if s.Batch != nil {
		return s.Batch.Len()
	}
	return len(s.Rows)
}

// AppendRows appends the segment's quanta to dst in row-major form.
func (s Segment) AppendRows(dst []any) []any {
	if s.Batch != nil {
		return s.Batch.AppendRows(dst)
	}
	return append(dst, s.Rows...)
}

// SegmentRows flattens a segment run to row-major quanta; nil when there are
// none.
func SegmentRows(segs []Segment) []any {
	n := 0
	for _, s := range segs {
		n += s.Len()
	}
	if n == 0 {
		return nil
	}
	out := make([]any, 0, n)
	for _, s := range segs {
		out = s.AppendRows(out)
	}
	return out
}

// SegmentedDataset is a Dataset whose quanta live in row and column-batch
// segments, in order.
type SegmentedDataset struct {
	Segs []Segment
}

// NewSegmentedDataset wraps segments in a Dataset.
func NewSegmentedDataset(segs []Segment) *SegmentedDataset {
	return &SegmentedDataset{Segs: segs}
}

// Segments returns the underlying segments.
func (d *SegmentedDataset) Segments() []Segment { return d.Segs }

// Card returns the exact number of quanta.
func (d *SegmentedDataset) Card() int64 {
	var n int64
	for _, s := range d.Segs {
		n += int64(s.Len())
	}
	return n
}

// Open returns a row iterator; batch segments are expanded one segment at a
// time as iteration reaches them.
func (d *SegmentedDataset) Open() Iterator {
	return &segmentIter{segs: d.Segs}
}

type segmentIter struct {
	segs []Segment
	cur  []any
	pos  int
}

func (it *segmentIter) Next() (any, bool) {
	for it.pos >= len(it.cur) {
		if len(it.segs) == 0 {
			return nil, false
		}
		s := it.segs[0]
		it.segs = it.segs[1:]
		it.pos = 0
		if s.Batch != nil {
			it.cur = s.Batch.AppendRows(nil)
		} else {
			it.cur = s.Rows
		}
	}
	v := it.cur[it.pos]
	it.pos++
	return v, true
}
