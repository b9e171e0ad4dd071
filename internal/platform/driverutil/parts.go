package driverutil

import (
	"fmt"

	"rheem/internal/core"
)

// Partitions as rows. A partition at rest is a []any of quanta, on every
// engine and in every kernel; a channel payload reaches the engines' partitions
// through ChannelSlice, quanta files decoded to rows at the channel boundary
// (batch frames expanded). The vector kernels build the column batches they
// run over from rows themselves (core.BatchFromRowsNeeding).

// Parts is partitions at rest: one row run per partition.
type Parts [][]any

// Count returns the total number of quanta.
func (p Parts) Count() int64 {
	var n int64
	for _, part := range p {
		n += int64(len(part))
	}
	return n
}

// Collect concatenates all partitions in order into a slice of its own.
func (p Parts) Collect() []any {
	out := make([]any, 0, p.Count())
	for _, part := range p {
		out = append(out, part...)
	}
	return out
}

// SplitRows partitions data into n contiguous parts over data's own backing
// array, with the engines' ceil-chunk boundaries (chunk = ceil(len/n); part i
// covers [i*chunk, min((i+1)*chunk, len))). Parts are cut with three-index
// slices, so appending to one partition can never write into the next one's
// rows.
func SplitRows(data []any, n int) Parts {
	if n <= 0 {
		n = 1
	}
	parts := make(Parts, n)
	chunk := (len(data) + n - 1) / n
	for i := range parts {
		lo, hi := min(i*chunk, len(data)), min((i+1)*chunk, len(data))
		if lo < hi {
			parts[i] = data[lo:hi:hi]
		}
	}
	return parts
}

// ChannelSlice extracts a collection- or file-typed channel's quanta as one
// slice: a slice payload as it lies (aliased, not copied), a quanta-file path
// decoded. Engines use it for broadcast inputs and wherever a collection
// channel is wanted as rows.
func ChannelSlice(ch *core.Channel) ([]any, error) {
	switch p := ch.Payload.(type) {
	case *core.SliceDataset:
		return p.Data, nil
	case []any:
		return p, nil
	case string:
		return core.ReadQuantaFile(p)
	default:
		return nil, fmt.Errorf("driverutil: channel %s payload %T carries no quanta", ch.Desc.Name, ch.Payload)
	}
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
