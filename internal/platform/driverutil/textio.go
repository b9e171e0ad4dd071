package driverutil

import (
	"fmt"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// LocalTextPath reports whether a text source or sink path names a file of
// the local file system rather than a DFS file: one that only the process on
// this host can read or write.
func LocalTextPath(path string) bool { return !dfs.IsPath(path) }

// ReadTextParts reads a text source as line-aligned input splits, one
// string quantum per line, reading the splits on s. A dfs:// path is cut
// under Hadoop's and Spark's textFile rule: the split size is
// min(block size, ceil(file size / n)), a split never crosses a block, and a
// split owns every line that starts inside its byte range, finishing a line
// that straddles its end — so a file of at least n² bytes gives at least n
// splits even when it is one block, and the splits concatenated are the
// file's lines, each once and in order. A split is read from its own offset
// through one buffer of at most dfs.SplitBufferMax bytes, and each line is
// boxed as it is read; at most n splits are read at once, and a buffer is
// reused for split after split (and, at full size, job after job), so the
// file is never resident but as its line strings. A line loses a
// trailing carriage return, as in dfs.ReadLines. Any other path is a local
// file, read whole and cut into n row runs.
func ReadTextParts(s Scheduler, store *dfs.Store, path string, n int) ([][]any, error) {
	n = max(n, 1)
	if LocalTextPath(path) {
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
	// At most n splits are read at once, each holding one of n buffers,
	// made when first taken (a nil token), whatever the scheduler's width.
	bufs := make(chan []byte, n)
	for range n {
		bufs <- nil
	}
	parts := make([][]any, len(splits))
	err = s.Each(len(splits), func(i int) error {
		buf := <-bufs
		if buf == nil {
			buf = dfs.SplitBuffer(splitSize)
		}
		defer func() { bufs <- buf }()
		sp := splits[i]
		var part []any
		var read int64 // the bytes of the lines in part, newlines included
		err := store.SplitLines(name, blocks, sp.block, sp.lo, sp.hi, buf, func(line []byte) {
			if len(part) == cap(part) {
				part = growPart(part, read, sp.hi-sp.lo)
			}
			part = append(part, textLine(line))
			read += int64(len(line)) + 1
		})
		parts[i] = part
		return err
	})
	for range n {
		dfs.FreeSplitBuffer(<-bufs) // a nil token was never made
	}
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// partSample is how many lines a split's partition holds before it is sized
// for the rest by the bytes those lines took.
const partSample = 64

// growPart gives a full partition of a split of length bytes room for the
// lines still to come, judged by the read bytes the lines in it took, plus
// a sixteenth: one estimate from the first partSample lines sizes a split
// of lines of like length, and a low one is revised from all lines so far.
func growPart(part []any, read, length int64) []any {
	n := len(part)
	if n == 0 {
		return make([]any, 0, partSample)
	}
	want := int(int64(n) * length / read)
	grown := make([]any, n, max(want, n)+want/16+8)
	copy(grown, part)
	return grown
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
	if LocalTextPath(path) {
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
