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
	"time"
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
	// ThrottleMBps, when positive, sleeps during reads/writes to model
	// storage bandwidth. Zero disables throttling.
	ThrottleMBps float64
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

func sanitize(name string) string {
	r := strings.NewReplacer("/", "_", "\\", "_", ":", "_")
	return r.Replace(name)
}

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
		w.store.throttle(len(data))
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
			r.store.throttle(n)
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

// readBlock reads block b whole into one buffer of its recorded size.
func (s *Store) readBlock(name string, b BlockInfo) ([]byte, error) {
	f, err := s.openReplica(name, b)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, b.Size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("dfs: read %q block %d: %w", name, b.Index, err)
	}
	return data, nil
}

// lineChunk is the read size used to finish a line that straddles into a
// block: the reader needs the block only up to its first newline.
const lineChunk = 512

// appendLineEnd appends to frag the bytes of block b before its first
// newline, reading b in lineChunk pieces and stopping at the newline. found
// reports whether b holds a newline; if not, frag has all of b appended.
func (s *Store) appendLineEnd(name string, b BlockInfo, frag []byte) (_ []byte, found bool, _ error) {
	f, err := s.openReplica(name, b)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	buf := make([]byte, min(b.Size, lineChunk))
	for off := int64(0); off < b.Size; off += int64(len(buf)) {
		chunk := buf[:min(int64(len(buf)), b.Size-off)]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return nil, false, fmt.Errorf("dfs: read %q block %d: %w", name, b.Index, err)
		}
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			return append(frag, chunk[:nl]...), true, nil
		}
		frag = append(frag, chunk...)
	}
	return frag, false, nil
}

func (s *Store) throttle(n int) {
	if s.opts.ThrottleMBps <= 0 || n == 0 {
		return
	}
	d := time.Duration(float64(n) / (s.opts.ThrottleMBps * 1e6) * float64(time.Second))
	if d > 0 {
		time.Sleep(d)
	}
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
	// the block it came from.
	if err := s.eachLine(name, blocks, index, func(line []byte) { out = append(out, string(line)) }); err != nil {
		return nil, err
	}
	return out, nil
}

// eachLine calls visit with every line the split of block index owns, in
// order, under ReadBlockLines' convention; blocks is the file's layout. The
// slice passed to visit is only valid during the call.
func (s *Store) eachLine(name string, blocks []BlockInfo, index int, visit func(line []byte)) error {
	if index < 0 || index >= len(blocks) {
		return fmt.Errorf("dfs: %q has no block %d", name, index)
	}
	data, err := s.readBlock(name, blocks[index])
	if err != nil {
		return err
	}
	pos := 0
	if index > 0 && !blocks[index-1].EndsNL {
		// The first (partial) line of this block is owned by the previous
		// split; skip past it.
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// The whole block is the middle of one line owned earlier.
			return nil
		}
		pos = nl + 1
	}
	for {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break
		}
		visit(data[pos : pos+nl])
		pos += nl + 1
	}
	if pos == len(data) {
		return nil
	}
	// A trailing fragment continues into subsequent blocks (or is the file's
	// last, newline-less line). Its capacity ends at the block's, so the
	// appends below copy it out instead of writing into data.
	frag := data[pos:len(data):len(data)]
	for next := index + 1; next < len(blocks); next++ {
		var found bool
		if frag, found, err = s.appendLineEnd(name, blocks[next], frag); err != nil {
			return err
		}
		if found {
			break
		}
	}
	visit(frag)
	return nil
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
