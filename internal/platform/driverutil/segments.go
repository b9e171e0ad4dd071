package driverutil

import (
	"fmt"

	"rheem/internal/core"
)

// Partitions as segment runs. A partition at rest is a []core.Segment — runs
// of rows interleaved with native column batches, as decoded off shuffle
// files, DFS blocks and spill channels — and the helpers here carry channel
// payloads to the engines' partitions in that one form, without a row
// round-trip. The cardinal rule is boundary identity: however a partition's
// quanta are carried, the set and order of rows per partition is that of the
// flattened rows, so a per-batch fallback to the row kernel never changes
// what downstream operators observe.

// ChannelSegments extracts a collection- or file-typed channel's quanta as a
// segment run: a slice payload is the one-segment run {Rows: data} (aliased,
// not copied), a SegmentedDataset its segments, and a quanta-file path
// decodes with batch frames kept as column batches.
func ChannelSegments(ch *core.Channel) ([]core.Segment, error) {
	switch p := ch.Payload.(type) {
	case *core.SliceDataset:
		return []core.Segment{{Rows: p.Data}}, nil
	case []any:
		return []core.Segment{{Rows: p}}, nil
	case *core.SegmentedDataset:
		return p.Segs, nil
	case string:
		return core.ReadQuantaFileSegments(p)
	default:
		return nil, fmt.Errorf("driverutil: channel %s payload %T carries no quanta", ch.Desc.Name, ch.Payload)
	}
}

// RowSegments carries row partitions as segment runs: each partition is the
// one-segment run {Rows: part}, aliased.
func RowSegments(parts [][]any) [][]core.Segment {
	segs := make([]core.Segment, len(parts))
	out := make([][]core.Segment, len(parts))
	for i, part := range parts {
		segs[i].Rows = part
		out[i] = segs[i : i+1 : i+1]
	}
	return out
}

// RowParts is the row view of partitions at rest: a partition that is one
// row run is aliased, any other is flattened.
func RowParts(parts [][]core.Segment) [][]any {
	out := make([][]any, len(parts))
	for i, segs := range parts {
		if len(segs) == 1 && segs[0].Batch == nil {
			out[i] = segs[0].Rows
		} else if len(segs) > 0 {
			out[i] = core.SegmentRows(segs)
		}
	}
	return out
}

// ChannelSlice is the row view of ChannelSegments: engines use it for
// broadcast inputs and wherever a collection channel is wanted as one slice.
func ChannelSlice(ch *core.Channel) ([]any, error) {
	segs, err := ChannelSegments(ch)
	if err != nil {
		return nil, err
	}
	return RowParts([][]core.Segment{segs})[0], nil
}

// ChannelQuanta materializes the quanta of any channel a stage can produce:
// engine-native partitions through their Collect (RDDs, datasets), a table
// reference through its Rows, everything else as ChannelSlice.
func ChannelQuanta(ch *core.Channel) ([]any, error) {
	switch p := ch.Payload.(type) {
	case interface{ Collect() []any }:
		return p.Collect(), nil
	case interface{ Rows() ([]any, error) }:
		return p.Rows()
	}
	return ChannelSlice(ch)
}

// SplitSegments partitions a segment run into n contiguous parts with
// exactly the boundaries the engines' ceil-chunk row partitioners produce
// over the flattened rows (chunk = ceil(total/n); part i covers [i*chunk,
// min((i+1)*chunk, total))). A batch that straddles a boundary is expanded
// and split at the exact row offset — at most n-1 batches lose their
// batch-native form — so batch-carried and row-carried partitioning are
// row-for-row identical.
func SplitSegments(segs []core.Segment, n int) [][]core.Segment {
	if n <= 0 {
		n = 1
	}
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	parts := make([][]core.Segment, n)
	if total == 0 {
		return parts
	}
	chunk := (total + n - 1) / n
	si, off := 0, 0 // cursor: segment index, row offset within it
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := min(lo+chunk, total)
		if lo >= hi {
			continue
		}
		want := hi - lo
		var part []core.Segment
		for want > 0 {
			s := segs[si]
			rem := s.Len() - off
			if rem <= want {
				part = append(part, sliceSegment(s, off, s.Len()))
				want -= rem
				si, off = si+1, 0
				continue
			}
			part = append(part, sliceSegment(s, off, off+want))
			off += want
			want = 0
		}
		parts[i] = part
	}
	return parts
}

// sliceSegment returns rows [lo:hi) of a segment; a whole batch stays
// batch-native, a partial one expands to its boxed rows. Row runs are cut
// with three-index slices, so appending to one partition can never write
// into the next one's rows.
func sliceSegment(s core.Segment, lo, hi int) core.Segment {
	if s.Batch != nil {
		if lo == 0 && hi == s.Batch.Len() {
			return s
		}
		return core.Segment{Rows: s.Batch.AppendRows(nil)[lo:hi:hi]}
	}
	return core.Segment{Rows: s.Rows[lo:hi:hi]}
}
