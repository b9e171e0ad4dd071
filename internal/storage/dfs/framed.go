package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// Framed files: a DFS file whose payload is a sequence of length-prefixed
// frames (uvarint payload length, then the payload bytes), optionally
// behind a raw header. Frames are opaque to the DFS — the quantum codec
// above it decides what they contain — but the store records, per block,
// the offset of the first frame that *starts* inside the block. That is
// the binary analogue of the EndsNL line convention: parallel engines can
// hand each block to a different worker and ReadBlockFrames returns every
// frame the block owns, reading into subsequent blocks only to finish a
// frame that straddles the boundary.

// ErrNotFramed reports a frame read against a file written without frame
// metadata (e.g. a line-oriented file from WriteLines).
var ErrNotFramed = errors.New("dfs: file is not framed")

// IsFramed reports whether the named file was written with frame metadata.
func (s *Store) IsFramed(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[name]
	return ok && m.Framed
}

// FrameWriter writes a framed DFS file. Raw header bytes (format magic)
// may be written before the first frame; after Close the file carries
// per-block frame-offset metadata for split reads.
type FrameWriter struct {
	store *Store
	w     *blockWriter
	off   int64
	// firstInBlock[i] is the offset within block i of the first frame that
	// starts there; blocks wholly inside one frame's payload get -1.
	firstInBlock []int64
	lenBuf       [binary.MaxVarintLen64]byte
}

// CreateFrames opens the named file for framed (re)writing.
func (s *Store) CreateFrames(name string) (*FrameWriter, error) {
	w, err := s.Create(name)
	if err != nil {
		return nil, err
	}
	return &FrameWriter{store: s, w: w.(*blockWriter)}, nil
}

// WriteRaw writes header bytes that belong to no frame (a format magic).
// It must not be called after the first WriteFrame.
func (fw *FrameWriter) WriteRaw(p []byte) error {
	if _, err := fw.w.Write(p); err != nil {
		return err
	}
	fw.off += int64(len(p))
	return nil
}

// WriteFrame appends one length-prefixed frame.
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	bs := fw.store.opts.BlockSize
	blk := int(fw.off / bs)
	for len(fw.firstInBlock) <= blk {
		fw.firstInBlock = append(fw.firstInBlock, -1)
	}
	if fw.firstInBlock[blk] < 0 {
		fw.firstInBlock[blk] = fw.off % bs
	}
	n := binary.PutUvarint(fw.lenBuf[:], uint64(len(payload)))
	if _, err := fw.w.Write(fw.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	fw.off += int64(n) + int64(len(payload))
	return nil
}

// Close finalizes the file and its frame metadata.
func (fw *FrameWriter) Close() error {
	if err := fw.w.Close(); err != nil {
		return err
	}
	m := fw.w.meta
	m.Framed = true
	for i := range m.Blocks {
		off := int64(-1)
		if i < len(fw.firstInBlock) {
			off = fw.firstInBlock[i]
		}
		m.Blocks[i].FrameOff = off
	}
	fw.store.mu.Lock()
	defer fw.store.mu.Unlock()
	return fw.store.saveMeta(m)
}

// Abort drops the partially-written file (best effort) after a write error,
// so a failed producer leaves no half-frame garbage behind. The metadata is
// only saved by Close, so removing the flushed blocks suffices.
func (fw *FrameWriter) Abort() {
	fw.w.closed = true
	for _, b := range fw.w.meta.Blocks {
		for _, node := range b.Nodes {
			os.Remove(fw.store.blockPath(fw.w.meta.Name, node, b.Index))
		}
	}
}

// ReadBlockFrames returns the payloads of every frame starting in one block
// split, reading into subsequent blocks to finish a straddling frame.
// Concatenating the results over all blocks yields exactly the file's
// frames, each once.
func (s *Store) ReadBlockFrames(name string, index int) ([][]byte, error) {
	s.mu.Lock()
	m, ok := s.metas[name]
	var blocks []BlockInfo
	framed := false
	if ok {
		framed = m.Framed
		blocks = append([]BlockInfo(nil), m.Blocks...)
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	if !framed {
		return nil, fmt.Errorf("%w: %q", ErrNotFramed, name)
	}
	if index < 0 || index >= len(blocks) {
		return nil, fmt.Errorf("dfs: %q has no block %d", name, index)
	}
	start := blocks[index].FrameOff
	if start < 0 {
		return nil, nil // block is the interior of one frame owned earlier
	}
	data, err := s.readBlock(name, blocks[index])
	if err != nil {
		return nil, err
	}
	own := int64(len(data)) // frames starting at or beyond this are not ours
	pos := start
	next := index + 1
	// ensure makes at least n bytes available at data[pos:], appending
	// subsequent blocks when a frame (or its length prefix) straddles the
	// boundary.
	ensure := func(n int64) error {
		for int64(len(data))-pos < n && next < len(blocks) {
			nd, err := s.readBlock(name, blocks[next])
			if err != nil {
				return err
			}
			data = append(data, nd...)
			next++
		}
		if int64(len(data))-pos < n {
			return fmt.Errorf("dfs: %q truncated frame in block %d", name, index)
		}
		return nil
	}
	var out [][]byte
	for pos < own {
		// Frame length prefix, possibly continued in the next block.
		var n uint64
		var w int
		for {
			n, w = binary.Uvarint(data[pos:])
			if w > 0 {
				break
			}
			if w < 0 {
				return nil, fmt.Errorf("dfs: %q corrupt frame length in block %d", name, index)
			}
			if err := ensure(int64(len(data)) - pos + 1); err != nil {
				return nil, err
			}
		}
		pos += int64(w)
		if err := ensure(int64(n)); err != nil {
			return nil, err
		}
		out = append(out, append([]byte(nil), data[pos:pos+int64(n)]...))
		pos += int64(n)
	}
	return out, nil
}
