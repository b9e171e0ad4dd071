// Package dfs implements a miniature distributed file system in the spirit
// of HDFS: files are split into fixed-size blocks, blocks are replicated,
// and readers can open individual blocks so parallel engines can assign
// block splits to workers. It backs the "dfs" channel and the dfs:// path
// scheme of file sources and sinks.
//
// The "cluster" is simulated on the local file system: every block is a
// file under the store's root directory, and replicas are physical copies
// under per-"node" subdirectories. An optional throughput throttle models
// network-attached storage; it is off by default so unit tests run at full
// speed.
package dfs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Scheme is the path prefix that designates DFS-resident files.
const Scheme = "dfs://"

// IsPath reports whether a path refers to a DFS file.
func IsPath(p string) bool { return strings.HasPrefix(p, Scheme) }

// TrimScheme strips the dfs:// prefix.
func TrimScheme(p string) string { return strings.TrimPrefix(p, Scheme) }

// Options configure a Store.
type Options struct {
	BlockSize   int64 // bytes per block; default 4 MiB
	Replication int   // copies per block; default 2
	Nodes       int   // simulated datanodes; default 4
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 4 << 20
	}
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Replication > o.Nodes {
		o.Replication = o.Nodes
	}
	return o
}

// Store is a DFS namespace rooted at a local directory.
type Store struct {
	root string
	opts Options

	mu    sync.Mutex
	metas map[string]*fileMeta
}

// BlockInfo describes one block of a file.
type BlockInfo struct {
	Index int   `json:"index"`
	Size  int64 `json:"size"`
	Nodes []int `json:"nodes"` // datanodes holding replicas
	// EndsNL records whether the block's last byte is a newline; block-split
	// readers use it to decide first-line ownership.
	EndsNL bool `json:"ends_nl"`
	// FrameOff is the offset within the block of the first frame that starts
	// there (-1: the block is interior to one straddling frame). Only
	// meaningful for framed files; see framed.go.
	FrameOff int64 `json:"frame_off,omitempty"`
}

type fileMeta struct {
	Name   string      `json:"name"`
	Size   int64       `json:"size"`
	Blocks []BlockInfo `json:"blocks"`
	// Framed marks files written through CreateFrames (length-prefixed
	// records with per-block offsets) as opposed to newline-delimited text.
	// Absent from metadata written before framing existed, so old files
	// keep reading as line files.
	Framed bool `json:"framed,omitempty"`
	// sample memoizes LineSample for this version of the file (guarded by
	// Store.mu, never persisted). Create and Delete replace or drop the
	// meta, so the memo dies with its version and is never invalidated.
	sample *Sample
}

// New creates (or reopens) a store rooted at dir.
func New(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: create root: %w", err)
	}
	s := &Store{root: dir, opts: opts, metas: map[string]*fileMeta{}}
	if err := s.loadMetas(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewTemp creates a store under a fresh temporary directory.
func NewTemp(opts Options) (*Store, error) {
	dir, err := os.MkdirTemp("", "rheem-dfs-*")
	if err != nil {
		return nil, fmt.Errorf("dfs: temp root: %w", err)
	}
	return New(dir, opts)
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// BlockSize returns the configured block size.
func (s *Store) BlockSize() int64 { return s.opts.BlockSize }

func (s *Store) metaPath(name string) string {
	return filepath.Join(s.root, "meta", sanitize(name)+".json")
}

func (s *Store) blockPath(name string, node, index int) string {
	return filepath.Join(s.root, fmt.Sprintf("node%d", node), sanitize(name), fmt.Sprintf("blk_%06d", index))
}

// nameReplacer maps a file name to one path element.
var nameReplacer = strings.NewReplacer("/", "_", "\\", "_", ":", "_")

func sanitize(name string) string { return nameReplacer.Replace(name) }

func (s *Store) loadMetas() error {
	dir := filepath.Join(s.root, "meta")
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dfs: read meta dir: %w", err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return fmt.Errorf("dfs: read meta %s: %w", e.Name(), err)
		}
		var m fileMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("dfs: parse meta %s: %w", e.Name(), err)
		}
		s.metas[m.Name] = &m
	}
	return nil
}

func (s *Store) saveMeta(m *fileMeta) error {
	if err := os.MkdirAll(filepath.Join(s.root, "meta"), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.metaPath(m.Name), raw, 0o644)
}

// Exists reports whether the named file exists.
func (s *Store) Exists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.metas[name]
	return ok
}

// Stat returns the file's size and block layout.
func (s *Store) Stat(name string) (size int64, blocks []BlockInfo, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[name]
	if !ok {
		return 0, nil, fmt.Errorf("dfs: no such file %q", name)
	}
	return m.Size, append([]BlockInfo(nil), m.Blocks...), nil
}

// List returns the names of all files, sorted.
func (s *Store) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.metas))
	for n := range s.metas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delete removes a file and its block replicas.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	m, ok := s.metas[name]
	if ok {
		delete(s.metas, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dfs: no such file %q", name)
	}
	os.Remove(s.metaPath(name))
	for _, b := range m.Blocks {
		for _, node := range b.Nodes {
			os.Remove(s.blockPath(name, node, b.Index))
		}
	}
	return nil
}

// Create opens the named file for (re)writing. The returned writer splits
// the byte stream into blocks and replicates each; Close finalizes the
// metadata.
func (s *Store) Create(name string) (io.WriteCloser, error) {
	if name == "" {
		return nil, errors.New("dfs: empty file name")
	}
	// Drop any previous version.
	if s.Exists(name) {
		if err := s.Delete(name); err != nil {
			return nil, err
		}
	}
	return &blockWriter{store: s, meta: &fileMeta{Name: name}}, nil
}

type blockWriter struct {
	store  *Store
	meta   *fileMeta
	buf    []byte
	closed bool
}

func (w *blockWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("dfs: write after close")
	}
	w.buf = append(w.buf, p...)
	n := len(p)
	bs := w.store.opts.BlockSize
	for int64(len(w.buf)) >= bs {
		if err := w.flushBlock(w.buf[:bs]); err != nil {
			return n, err
		}
		w.buf = w.buf[bs:]
	}
	return n, nil
}

func (w *blockWriter) flushBlock(data []byte) error {
	idx := len(w.meta.Blocks)
	// Replica placement: hash of (file, block) picks the primary node,
	// subsequent replicas go to the following nodes round-robin.
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", w.meta.Name, idx)
	primary := int(h.Sum32()) % w.store.opts.Nodes
	if primary < 0 {
		primary += w.store.opts.Nodes
	}
	bi := BlockInfo{Index: idx, Size: int64(len(data)), EndsNL: len(data) > 0 && data[len(data)-1] == '\n'}
	for r := 0; r < w.store.opts.Replication; r++ {
		node := (primary + r) % w.store.opts.Nodes
		path := w.store.blockPath(w.meta.Name, node, idx)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("dfs: block dir: %w", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("dfs: write block: %w", err)
		}
		bi.Nodes = append(bi.Nodes, node)
	}
	w.meta.Blocks = append(w.meta.Blocks, bi)
	w.meta.Size += int64(len(data))
	return nil
}

func (w *blockWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 || len(w.meta.Blocks) == 0 {
		if err := w.flushBlock(w.buf); err != nil {
			return err
		}
		w.buf = nil
	}
	w.store.mu.Lock()
	w.store.metas[w.meta.Name] = w.meta
	err := w.store.saveMeta(w.meta)
	w.store.mu.Unlock()
	return err
}

// Open returns a reader over the whole file (blocks concatenated).
func (s *Store) Open(name string) (io.ReadCloser, error) {
	_, blocks, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	return &fileReader{store: s, name: name, blocks: blocks}, nil
}

type fileReader struct {
	store  *Store
	name   string
	blocks []BlockInfo
	cur    io.ReadCloser
	next   int
}

func (r *fileReader) Read(p []byte) (int, error) {
	for {
		if r.cur == nil {
			if r.next >= len(r.blocks) {
				return 0, io.EOF
			}
			blk, err := r.store.OpenBlock(r.name, r.blocks[r.next].Index)
			if err != nil {
				return 0, err
			}
			r.cur = blk
			r.next++
		}
		n, err := r.cur.Read(p)
		if n > 0 {
			return n, nil
		}
		if errors.Is(err, io.EOF) {
			r.cur.Close()
			r.cur = nil
			continue
		}
		return n, err
	}
}

func (r *fileReader) Close() error {
	if r.cur != nil {
		return r.cur.Close()
	}
	return nil
}

// OpenBlock opens one block of a file, picking any whole replica. Parallel
// engines hand distinct blocks to distinct workers.
func (s *Store) OpenBlock(name string, index int) (io.ReadCloser, error) {
	_, blocks, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(blocks) {
		return nil, fmt.Errorf("dfs: %q has no block %d", name, index)
	}
	return s.openReplica(name, blocks[index])
}

// openReplica opens the first whole replica of block b: one that opens and
// holds the block's recorded size. A short replica (a torn copy) is skipped
// for the next one; when none is whole the error names the file and block.
func (s *Store) openReplica(name string, b BlockInfo) (*os.File, error) {
	var lastErr error
	for _, node := range b.Nodes {
		f, err := os.Open(s.blockPath(name, node, b.Index))
		if err != nil {
			lastErr = err
			continue
		}
		fi, err := f.Stat()
		if err == nil && fi.Size() < b.Size {
			err = fmt.Errorf("replica on node %d holds %d of %d bytes", node, fi.Size(), b.Size)
		}
		if err != nil {
			f.Close()
			lastErr = err
			continue
		}
		return f, nil
	}
	return nil, fmt.Errorf("dfs: no whole replica of %q block %d: %w", name, b.Index, lastErr)
}

// WriteLines writes text lines as a DFS file.
func (s *Store) WriteLines(name string, lines []string) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadLines reads a DFS file as text lines.
func (s *Store) ReadLines(name string) ([]string, error) {
	r, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}

// SplitBufferMax bounds the buffer a split's lines are read through, so
// reading a text file holds at most this much of it per reader, whatever its
// block size.
const SplitBufferMax = 64 << 10

// lineChunk is the smallest split buffer: a split shorter than it still reads
// in lineChunk pieces, so a line that straddles out of a short split is not
// finished a split's length at a time.
const lineChunk = 512

// SplitBuffer returns a buffer for reading splits of up to length bytes
// (SplitLines): the split's length, kept within [lineChunk, SplitBufferMax].
// Hand it back with FreeSplitBuffer once it is no longer read through.
func SplitBuffer(length int64) []byte {
	if length >= SplitBufferMax {
		return splitBuffers.Get().(*[SplitBufferMax]byte)[:]
	}
	return make([]byte, max(length, lineChunk))
}

// FreeSplitBuffer hands back a buffer SplitBuffer returned. Every line read
// through it was copied out, so nothing still points into it.
func FreeSplitBuffer(buf []byte) {
	if len(buf) == SplitBufferMax {
		splitBuffers.Put((*[SplitBufferMax]byte)(buf))
	}
}

// splitBuffers keeps the full-size split buffers between reads, so a text
// source read job after job reuses the same few.
var splitBuffers = sync.Pool{New: func() any { return new([SplitBufferMax]byte) }}

// ReadBlockLines reads the text lines belonging to one block split, using
// the record-reader convention so that concatenating the results of all
// blocks yields exactly the file's lines, each once: a split owns every
// line that *starts* strictly inside it (the first line of the file belongs
// to block 0), and the reader continues into the next block to finish a
// line that straddles the boundary.
//
// A replica shorter than its block's recorded size is skipped for the next
// one; with no whole replica the read fails rather than return fewer lines.
func (s *Store) ReadBlockLines(name string, index int) ([]string, error) {
	_, blocks, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	var out []string
	// Each line is its own string, so a line kept downstream does not pin
	// the buffer it was read through.
	if err := s.eachLine(name, blocks, index, func(line []byte) { out = append(out, string(line)) }); err != nil {
		return nil, err
	}
	return out, nil
}

// eachLine calls visit with every line the split of block index owns, in
// order (SplitLines over the whole block).
func (s *Store) eachLine(name string, blocks []BlockInfo, index int, visit func(line []byte)) error {
	if index < 0 || index >= len(blocks) {
		return fmt.Errorf("dfs: %q has no block %d", name, index)
	}
	size := blocks[index].Size
	buf := SplitBuffer(size)
	defer FreeSplitBuffer(buf)
	return s.SplitLines(name, blocks, index, 0, size, buf, visit)
}

// SplitLines calls visit with every line that starts in bytes [lo, hi) of
// block index, in order, reading the file from there through buf alone (see
// SplitBuffer); blocks is the file's layout, as Stat returns it. A line
// starts at the file's first byte and after every newline. A line that runs
// past hi, or past the block, is finished from the bytes after it, in later
// blocks if need be, so splits cut at any offsets concatenate to the file's
// lines, each once. A line is passed without its newline and is valid only
// during the call: it is a slice of buf, or of a buffer of its own when it
// is longer than buf.
//
// A replica shorter than its block's recorded size is skipped for the next
// one; with no whole replica the read fails naming the file and block.
func (s *Store) SplitLines(name string, blocks []BlockInfo, index int, lo, hi int64, buf []byte, visit func(line []byte)) error {
	if index < 0 || index >= len(blocks) {
		return fmt.Errorf("dfs: %q has no block %d", name, index)
	}
	hi = min(hi, blocks[index].Size)
	if lo >= hi {
		return nil
	}
	// A line starts at lo if the byte before it is a newline: at a block's
	// start the previous block's EndsNL says so; inside a block the reader
	// starts one byte early, and skipping through the first newline from
	// there lands on lo exactly when that byte is one.
	at := lo // the block offset of the next byte the reader hands out
	starts := index == 0 || blocks[index-1].EndsNL
	if lo > 0 {
		at, starts = lo-1, false
	}
	lr := lineReader{s: s, name: name, blocks: blocks, next: index, off: at, buf: buf}
	defer lr.close()
	if !starts {
		n, found, err := lr.skip(hi - at)
		if err != nil || !found {
			return err // the split is the middle of a line an earlier one owns
		}
		at += n
	}
	for at < hi {
		line, ok, err := lr.line()
		if err != nil || !ok {
			return err
		}
		visit(line)
		at += int64(len(line)) + 1
	}
	return nil
}

// lineReader reads a file from one block offset on, block after block,
// through one buffer.
type lineReader struct {
	s      *Store
	name   string
	blocks []BlockInfo
	next   int   // the block f reads, or the next one to open
	off    int64 // where the next read starts in that block
	f      *os.File
	buf    []byte
	r, w   int    // buf[r:w] is read and not yet handed out
	long   []byte // a line longer than buf, joined
}

// fill reads the next bytes of the file into buf[w:], which must have room,
// opening the next block when one is exhausted; false means the file ended.
func (lr *lineReader) fill() (bool, error) {
	for ; lr.next < len(lr.blocks); lr.next, lr.off = lr.next+1, 0 {
		b := lr.blocks[lr.next]
		if lr.off >= b.Size {
			lr.close()
			continue
		}
		if lr.f == nil {
			f, err := lr.s.openReplica(lr.name, b)
			if err != nil {
				return false, err
			}
			lr.f = f
		}
		n := int(min(int64(len(lr.buf)-lr.w), b.Size-lr.off))
		if _, err := lr.f.ReadAt(lr.buf[lr.w:lr.w+n], lr.off); err != nil {
			return false, fmt.Errorf("dfs: read %q block %d: %w", lr.name, b.Index, err)
		}
		lr.w += n
		lr.off += int64(n)
		return true, nil
	}
	return false, nil
}

// skip hands out the bytes through the first newline among the next limit
// and reports how many that was; found is false when there is none.
func (lr *lineReader) skip(limit int64) (n int64, found bool, err error) {
	for n < limit {
		if lr.r == lr.w {
			lr.r, lr.w = 0, 0
			if more, err := lr.fill(); err != nil || !more {
				return n, false, err
			}
		}
		chunk := lr.buf[lr.r:lr.w]
		if rest := limit - n; int64(len(chunk)) > rest {
			chunk = chunk[:rest]
		}
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			lr.r += i + 1
			return n + int64(i) + 1, true, nil
		}
		lr.r += len(chunk)
		n += int64(len(chunk))
	}
	return n, false, nil
}

// line hands out the next line without its newline; ok is false at the end
// of the file. The line is a slice of buf, or of long when it does not fit.
func (lr *lineReader) line() (line []byte, ok bool, err error) {
	joined := false
	for {
		if i := bytes.IndexByte(lr.buf[lr.r:lr.w], '\n'); i >= 0 {
			line, lr.r = lr.buf[lr.r:lr.r+i], lr.r+i+1
			break
		}
		// No newline among the unread bytes: move them to the front of buf,
		// or, when they fill it, to long, and read on.
		if lr.r == 0 && lr.w == len(lr.buf) {
			if !joined {
				lr.long, joined = lr.long[:0], true
			}
			lr.long = append(lr.long, lr.buf...)
			lr.w = 0
		}
		lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
		lr.r = 0
		more, err := lr.fill()
		if err != nil {
			return nil, false, err
		}
		if !more { // the file's last line has no newline
			line, lr.r = lr.buf[:lr.w], lr.w
			if !joined && len(line) == 0 {
				return nil, false, nil
			}
			break
		}
	}
	if joined {
		lr.long = append(lr.long, line...)
		line = lr.long
	}
	return line, true, nil
}

// close closes the block being read, if any.
func (lr *lineReader) close() {
	if lr.f != nil {
		lr.f.Close()
		lr.f = nil
	}
}

// Sample is what block 0 of a line file says about the whole file — the
// input of a sampling cardinality estimate.
type Sample struct {
	Size   int64 // file size in bytes
	Blocks int   // number of blocks
	Lines  int64 // lines block 0 owns: len(ReadBlockLines(name, 0))
	Bytes  int64 // their bytes, one newline per line included
}

// LineSample returns the file's Sample, reading block 0 once per version of
// the file: the result is kept on that version's metadata and is stored
// only if the file was not replaced while it was read. A rewrite, delete or
// re-create is a new version and is sampled afresh.
func (s *Store) LineSample(name string) (Sample, error) {
	s.mu.Lock()
	m, ok := s.metas[name]
	if ok && m.sample != nil {
		smp := *m.sample
		s.mu.Unlock()
		return smp, nil
	}
	var smp Sample
	var blocks []BlockInfo
	if ok {
		blocks = append(blocks, m.Blocks...)
		smp = Sample{Size: m.Size, Blocks: len(blocks)}
	}
	s.mu.Unlock()
	if !ok {
		return Sample{}, fmt.Errorf("dfs: no such file %q", name)
	}
	err := s.eachLine(name, blocks, 0, func(line []byte) {
		smp.Lines++
		smp.Bytes += int64(len(line)) + 1
	})
	if err != nil {
		return Sample{}, err
	}
	s.mu.Lock()
	if s.metas[name] == m {
		m.sample = &smp
	}
	s.mu.Unlock()
	return smp, nil
}
