package core

// The codec's decoded form. ReadQuantaStreamSegments returns a stream's
// quanta as segments — runs of boxed rows interleaved with the column batches
// that batch frames decode to — for code that measures the decoder itself.
// Every channel and engine carries rows: ReadQuantaStream flattens the
// segments at the channel boundary.

// Segment is one contiguous run of decoded quanta: either boxed rows or a
// column batch. Exactly one of the fields is set.
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
