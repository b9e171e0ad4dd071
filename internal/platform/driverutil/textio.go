package driverutil

import (
	"bytes"
	"fmt"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// ReadTextParts reads a text source as line-aligned input splits, one
// string quantum per line, reading and cutting the splits on s. A dfs:// path
// is cut under Hadoop's and Spark's textFile rule: the split size is
// min(block size, ceil(file size / n)), a split never crosses a block, and a
// split owns every line that starts inside its byte range, finishing a line
// that straddles its end — so a file of at least n² bytes gives at least n
// splits even when it is one block, and the splits concatenated are the
// file's lines, each once and in order. A line loses a trailing carriage
// return, as in dfs.ReadLines. Any other path is a local file, read whole
// and cut into n row runs.
func ReadTextParts(s Scheduler, store *dfs.Store, path string, n int) ([][]any, error) {
	n = max(n, 1)
	if !dfs.IsPath(path) {
		lines, err := core.ReadTextFile(path)
		if err != nil {
			return nil, err
		}
		return SplitRows(lines, n), nil
	}
	if store == nil {
		return nil, fmt.Errorf("no DFS configured for %s", path)
	}
	name := dfs.TrimScheme(path)
	size, blocks, err := store.Stat(name)
	if err != nil {
		return nil, err
	}
	owned := make([]dfs.OwnedLines, len(blocks))
	if err := s.Each(len(blocks), func(b int) (err error) {
		owned[b], err = store.BlockLines(name, blocks, b)
		return err
	}); err != nil {
		return nil, err
	}
	splitSize := max(min(store.BlockSize(), (size+int64(n)-1)/int64(n)), 1)
	type split struct {
		block  int
		lo, hi int64 // block offsets
	}
	var splits []split
	for b, blk := range blocks { // an empty file's one empty block is one empty split
		for lo := int64(0); lo == 0 || lo < blk.Size; lo += splitSize {
			splits = append(splits, split{b, lo, min(lo+splitSize, blk.Size)})
		}
	}
	parts := make([][]any, len(splits))
	Do(s, len(splits), func(i int) {
		sp := splits[i]
		o := owned[sp.block]
		lines := o.Whole[lineStart(o.Whole, sp.lo-o.Start):lineStart(o.Whole, sp.hi-o.Start)]
		lastAt := o.Start + int64(len(o.Whole))
		last := o.Last != nil && sp.lo <= lastAt && lastAt < sp.hi
		count := bytes.Count(lines, []byte{'\n'})
		if last {
			count++
		}
		part := make([]any, 0, count)
		for len(lines) > 0 {
			nl := bytes.IndexByte(lines, '\n')
			part = append(part, textLine(lines[:nl]))
			lines = lines[nl+1:]
		}
		if last {
			part = append(part, textLine(o.Last))
		}
		parts[i] = part
	})
	return parts, nil
}

// lineStart is the offset in whole — complete lines, each ending in a
// newline — of the first line starting at or after offset x.
func lineStart(whole []byte, x int64) int {
	if x <= 0 {
		return 0
	}
	if x > int64(len(whole)) {
		return len(whole)
	}
	return int(x) + bytes.IndexByte(whole[x-1:], '\n')
}

// textLine is a line as its own string, so a kept line never pins the block
// it was read from, without the trailing carriage return a CRLF line has.
func textLine(line []byte) string {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return string(line)
}

// WriteTextLines writes data to the text sink op names, one formatted
// quantum per line (see FormatOf).
func WriteTextLines(store *dfs.Store, op *core.Operator, data []any) error {
	format := FormatOf(op)
	path := op.Params.Path
	if !dfs.IsPath(path) {
		return core.WriteTextFile(path, data, format)
	}
	if store == nil {
		return fmt.Errorf("no DFS configured for %s", path)
	}
	lines := make([]string, len(data))
	for i, q := range data {
		lines[i] = format(q)
	}
	return store.WriteLines(dfs.TrimScheme(path), lines)
}
