package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Binary quantum codec, the default wire format on every data-movement hot
// path (file channels, DFS shuffle partitions, fleet cache transfers). Values
// carry a one-byte type tag followed by a compact payload: varints for
// integers and lengths, raw 8-byte IEEE 754 for floats, recursively encoded
// elements for composites. Unlike the tagged-JSON codec it needs no
// per-field json.Marshal round-trips and no intermediate RawMessage
// allocations; encoders append into caller-supplied buffers so steady-state
// encoding is allocation-free.
//
// Streams of quanta (files, DFS objects) are length-prefixed frames — a
// uvarint payload length before each encoded quantum — behind the
// BinaryQuantaMagic header. It is the only at-rest format: readers reject
// input that does not begin with the header (ErrCorruptQuantum).

// Type tags. A decoded stream must reproduce exactly the types the JSON
// codec would: ints (any width) come back as int64, unknown types take the
// JSON fallback and decode best-effort.
const (
	binNil    = 0x00
	binFalse  = 0x01
	binTrue   = 0x02
	binInt    = 0x03 // zigzag varint
	binFloat  = 0x04 // 8-byte little-endian IEEE 754
	binString = 0x05 // uvarint length + bytes
	binFloats = 0x06 // uvarint count + 8 bytes each
	binRecord = 0x07 // uvarint count + encoded elements
	binSlice  = 0x08 // uvarint count + encoded elements
	binKV     = 0x09 // encoded key + encoded value
	binEdge   = 0x0a // zigzag src + zigzag dst
	binGroup  = 0x0b // encoded key + uvarint count + encoded values
	binJSON   = 0x0c // uvarint length + plain JSON (foreign types, best effort)
	binBatch  = 0x0d // column-wise batch: flags + nrows + ncols + columns
	binDict   = 0x0e // dictionary string column (inside binBatch): dict + codes
)

// BinaryQuantaMagic heads every binary quanta stream.
const BinaryQuantaMagic = "RQB1"

// AppendQuantumBinary appends the binary encoding of one quantum to buf and
// returns the extended buffer. Reusing the returned buffer across calls
// (buf[:0]) keeps steady-state encoding allocation-free.
func AppendQuantumBinary(buf []byte, q any) ([]byte, error) {
	switch v := q.(type) {
	case nil:
		return append(buf, binNil), nil
	case bool:
		if v {
			return append(buf, binTrue), nil
		}
		return append(buf, binFalse), nil
	case int:
		return appendZigzag(append(buf, binInt), int64(v)), nil
	case int64:
		return appendZigzag(append(buf, binInt), v), nil
	case float64:
		buf = append(buf, binFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)), nil
	case string:
		buf = binary.AppendUvarint(append(buf, binString), uint64(len(v)))
		return append(buf, v...), nil
	case []float64:
		buf = binary.AppendUvarint(append(buf, binFloats), uint64(len(v)))
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf, nil
	case Record:
		return appendElems(append(buf, binRecord), v)
	case []any:
		return appendElems(append(buf, binSlice), v)
	case KV:
		buf, err := AppendQuantumBinary(append(buf, binKV), v.Key)
		if err != nil {
			return nil, err
		}
		return AppendQuantumBinary(buf, v.Value)
	case Edge:
		return appendZigzag(appendZigzag(append(buf, binEdge), v.Src), v.Dst), nil
	case Group:
		buf, err := AppendQuantumBinary(append(buf, binGroup), v.Key)
		if err != nil {
			return nil, err
		}
		return appendElems(buf, v.Values)
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("core: binary-encode quantum %T: %w", q, err)
		}
		buf = binary.AppendUvarint(append(buf, binJSON), uint64(len(raw)))
		return append(buf, raw...), nil
	}
}

func appendElems(buf []byte, vs []any) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if buf, err = AppendQuantumBinary(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendZigzag(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

// EncodeQuantumBinary serializes one quantum into a fresh buffer.
func EncodeQuantumBinary(q any) ([]byte, error) { return AppendQuantumBinary(nil, q) }

// ErrCorruptQuantum reports a malformed or truncated binary quantum.
var ErrCorruptQuantum = errors.New("core: corrupt binary quantum")

// DecodeQuantumBinary parses one binary-encoded quantum. The encoding must
// occupy the whole input; trailing bytes are corruption, never silently
// ignored. A column batch is never a quantum: it decodes only as a whole
// frame of a quanta stream (decodeFrame), and anywhere else it is
// ErrCorruptQuantum.
func DecodeQuantumBinary(data []byte) (any, error) {
	q, rest, err := decodeQuantumBinary(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptQuantum, len(rest))
	}
	return q, nil
}

func decodeQuantumBinary(data []byte) (any, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: empty input", ErrCorruptQuantum)
	}
	tag, data := data[0], data[1:]
	switch tag {
	case binNil:
		return nil, data, nil
	case binFalse:
		return false, data, nil
	case binTrue:
		return true, data, nil
	case binInt:
		v, rest, err := decodeZigzag(data)
		return v, rest, err
	case binFloat:
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("%w: short float", ErrCorruptQuantum)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:], nil
	case binString:
		n, rest, err := decodeLen(data, 1)
		if err != nil {
			return nil, nil, err
		}
		return string(rest[:n]), rest[n:], nil
	case binFloats:
		n, rest, err := decodeLen(data, 8)
		if err != nil {
			return nil, nil, err
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		return out, rest[8*n:], nil
	case binRecord:
		vs, rest, err := decodeElems(data)
		if err != nil {
			return nil, nil, err
		}
		return Record(vs), rest, nil
	case binSlice:
		vs, rest, err := decodeElems(data)
		if err != nil {
			return nil, nil, err
		}
		return vs, rest, nil
	case binKV:
		key, rest, err := decodeQuantumBinary(data)
		if err != nil {
			return nil, nil, err
		}
		val, rest, err := decodeQuantumBinary(rest)
		if err != nil {
			return nil, nil, err
		}
		return KV{Key: key, Value: val}, rest, nil
	case binEdge:
		src, rest, err := decodeZigzag(data)
		if err != nil {
			return nil, nil, err
		}
		dst, rest, err := decodeZigzag(rest)
		if err != nil {
			return nil, nil, err
		}
		return Edge{Src: src, Dst: dst}, rest, nil
	case binGroup:
		key, rest, err := decodeQuantumBinary(data)
		if err != nil {
			return nil, nil, err
		}
		vals, rest, err := decodeElems(rest)
		if err != nil {
			return nil, nil, err
		}
		if vals == nil {
			vals = []any{}
		}
		return Group{Key: key, Values: vals}, rest, nil
	case binJSON:
		n, rest, err := decodeLen(data, 1)
		if err != nil {
			return nil, nil, err
		}
		var v any
		if err := json.Unmarshal(rest[:n], &v); err != nil {
			return nil, nil, fmt.Errorf("%w: embedded JSON: %v", ErrCorruptQuantum, err)
		}
		return v, rest[n:], nil
	case binBatch:
		return nil, nil, fmt.Errorf("%w: column batch inside a quantum", ErrCorruptQuantum)
	default:
		return nil, nil, fmt.Errorf("%w: unknown tag 0x%02x", ErrCorruptQuantum, tag)
	}
}

func decodeElems(data []byte) ([]any, []byte, error) {
	n, rest, err := decodeLen(data, 1)
	if err != nil {
		return nil, nil, err
	}
	out := make([]any, n)
	for i := range out {
		if out[i], rest, err = decodeQuantumBinary(rest); err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}

// decodeLen reads a uvarint count and verifies that count*elemSize payload
// bytes follow, guarding slice allocations against corrupt lengths.
func decodeLen(data []byte, elemSize int) (int, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint length", ErrCorruptQuantum)
	}
	rest := data[w:]
	if n > uint64(len(rest)/elemSize) {
		return 0, nil, fmt.Errorf("%w: length %d exceeds remaining input", ErrCorruptQuantum, n)
	}
	return int(n), rest, nil
}

func decodeZigzag(data []byte) (int64, []byte, error) {
	u, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptQuantum)
	}
	return int64(u>>1) ^ -int64(u&1), data[w:], nil
}

// --- column-wise batches --------------------------------------------------

// Batch framing limits. Stream writers pack runs of batchable rows into one
// column-wise frame of up to CodecBatchRows rows; runs shorter than
// minBatchRows stay row-framed (the per-batch header would outweigh the
// contiguity win).
const (
	CodecBatchRows = 4096
	minBatchRows   = 64
)

// Decode guards against corrupt batch headers demanding absurd allocations.
// Our encoder never exceeds CodecBatchRows rows; the caps leave generous
// slack for foreign writers.
const (
	maxBatchRows = 1 << 20
	maxBatchCols = 1 << 16
)

// AppendColumnBatchBinary appends the column-wise encoding of a batch: the
// binBatch tag, a flags byte (bit 0: scalar), row and column counts, then
// each column as a type byte, an optional validity bitmap, and a contiguous
// payload (zigzag varints, raw floats, length-prefixed strings, packed bool
// bits, or recursively encoded escape values).
func AppendColumnBatchBinary(buf []byte, b *ColumnBatch) ([]byte, error) {
	buf = append(buf, binBatch)
	var flags byte
	if b.scalar {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(b.n))
	buf = binary.AppendUvarint(buf, uint64(len(b.Cols)))
	for _, col := range b.Cols {
		if col.DictEncoded() {
			buf = append(buf, binDict)
		} else {
			buf = append(buf, byte(col.Type))
		}
		if col.Valid != nil {
			buf = append(buf, 1)
			for _, w := range col.Valid.Words() {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		} else {
			buf = append(buf, 0)
		}
		if col.DictEncoded() {
			// Dictionary frame: the distinct values once, then one uvarint
			// code per row — low-cardinality string columns ship a fraction
			// of their plain size.
			buf = binary.AppendUvarint(buf, uint64(len(col.Dict)))
			for _, s := range col.Dict {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			for _, code := range col.Codes {
				buf = binary.AppendUvarint(buf, uint64(code))
			}
			continue
		}
		switch col.Type {
		case ColInt64:
			for _, v := range col.Ints {
				buf = appendZigzag(buf, v)
			}
		case ColFloat64:
			for _, v := range col.Floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case ColString:
			for _, s := range col.Strs {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
		case ColBool:
			var cur byte
			for i, v := range col.Bools {
				if v {
					cur |= 1 << (uint(i) & 7)
				}
				if i&7 == 7 {
					buf = append(buf, cur)
					cur = 0
				}
			}
			if b.n&7 != 0 {
				buf = append(buf, cur)
			}
		case ColAny:
			var err error
			for _, v := range col.Anys {
				if buf, err = AppendQuantumBinary(buf, v); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("core: binary-encode batch: unknown column type %d", col.Type)
		}
	}
	return buf, nil
}

// decodeColumnBatch decodes the body of a batch frame (after its tag). Before
// each buffer is allocated, the bytes left must hold the minimum encoding of
// what the header claims — two bytes per column header, one byte per varint,
// string, escape value, dictionary entry or code, one bit per bool — so a
// corrupt count fails without allocating what it claims.
func decodeColumnBatch(data []byte) (*ColumnBatch, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("%w: short batch header", ErrCorruptQuantum)
	}
	flags, data := data[0], data[1:]
	nr, w := binary.Uvarint(data)
	if w <= 0 || nr > maxBatchRows {
		return nil, nil, fmt.Errorf("%w: batch row count", ErrCorruptQuantum)
	}
	data = data[w:]
	nc, w := binary.Uvarint(data)
	if w <= 0 || nc > maxBatchCols || nc > uint64(len(data)-w)/2 {
		return nil, nil, fmt.Errorf("%w: batch column count", ErrCorruptQuantum)
	}
	// With no column the bytes left bound nothing: a zero-column frame holds
	// at most the CodecBatchRows rows the encoder writes.
	if nc == 0 && nr > CodecBatchRows {
		return nil, nil, fmt.Errorf("%w: %d rows in a zero-column batch", ErrCorruptQuantum, nr)
	}
	data = data[w:]
	scalar := flags&1 != 0
	if scalar && nc != 1 {
		return nil, nil, fmt.Errorf("%w: scalar batch with %d columns", ErrCorruptQuantum, nc)
	}
	n := int(nr)
	b := &ColumnBatch{n: n, scalar: scalar, Cols: make([]*Column, nc), dirty: make([]bool, nc)}
	for c := range b.Cols {
		if len(data) < 2 {
			return nil, nil, fmt.Errorf("%w: short column header", ErrCorruptQuantum)
		}
		col := &Column{Type: ColType(data[0])}
		hasValid := data[1]
		data = data[2:]
		if hasValid == 1 {
			nw := (n + 63) / 64
			if len(data) < 8*nw {
				return nil, nil, fmt.Errorf("%w: short validity bitmap", ErrCorruptQuantum)
			}
			words := make([]uint64, nw)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
			col.Valid = BitsetFromWords(words, n)
			data = data[8*nw:]
		} else if hasValid != 0 {
			return nil, nil, fmt.Errorf("%w: bad validity flag", ErrCorruptQuantum)
		}
		if n > len(data) && (col.Type == ColInt64 || col.Type == ColString || col.Type == ColAny) {
			return nil, nil, fmt.Errorf("%w: short column", ErrCorruptQuantum)
		}
		var err error
		if byte(col.Type) == binDict {
			// Dictionary string column: distinct values, then one code per
			// row, each checked against the dictionary bound.
			col.Type = ColString
			ds, w := binary.Uvarint(data)
			if w <= 0 || ds > maxBatchRows || ds > uint64(len(data)-w) {
				return nil, nil, fmt.Errorf("%w: batch dictionary size", ErrCorruptQuantum)
			}
			data = data[w:]
			col.Dict = make([]string, ds)
			for i := range col.Dict {
				sn, rest, err := decodeLen(data, 1)
				if err != nil {
					return nil, nil, err
				}
				col.Dict[i] = string(rest[:sn])
				data = rest[sn:]
			}
			if n > len(data) {
				return nil, nil, fmt.Errorf("%w: short dictionary codes", ErrCorruptQuantum)
			}
			col.Codes = make([]uint32, n)
			for i := range col.Codes {
				code, w := binary.Uvarint(data)
				if w <= 0 || code >= ds {
					return nil, nil, fmt.Errorf("%w: batch dictionary code", ErrCorruptQuantum)
				}
				col.Codes[i] = uint32(code)
				data = data[w:]
			}
			b.Cols[c] = col
			continue
		}
		switch col.Type {
		case ColInt64:
			col.Ints = make([]int64, n)
			for i := range col.Ints {
				if col.Ints[i], data, err = decodeZigzag(data); err != nil {
					return nil, nil, err
				}
			}
		case ColFloat64:
			if len(data) < 8*n {
				return nil, nil, fmt.Errorf("%w: short float column", ErrCorruptQuantum)
			}
			col.Floats = make([]float64, n)
			for i := range col.Floats {
				col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
			data = data[8*n:]
		case ColString:
			col.Strs = make([]string, n)
			for i := range col.Strs {
				sn, rest, err := decodeLen(data, 1)
				if err != nil {
					return nil, nil, err
				}
				col.Strs[i] = string(rest[:sn])
				data = rest[sn:]
			}
		case ColBool:
			nb := (n + 7) / 8
			if len(data) < nb {
				return nil, nil, fmt.Errorf("%w: short bool column", ErrCorruptQuantum)
			}
			col.Bools = make([]bool, n)
			for i := range col.Bools {
				col.Bools[i] = data[i>>3]&(1<<(uint(i)&7)) != 0
			}
			data = data[nb:]
		case ColAny:
			col.Anys = make([]any, n)
			for i := range col.Anys {
				if col.Anys[i], data, err = decodeQuantumBinary(data); err != nil {
					return nil, nil, err
				}
			}
		default:
			return nil, nil, fmt.Errorf("%w: unknown column type %d", ErrCorruptQuantum, col.Type)
		}
		b.Cols[c] = col
	}
	return b, data, nil
}

// TryAppendBatch encodes chunk as a single column-wise batch value when the
// chunk is batchable and at least minBatchRows long; ok reports whether the
// batch encoding was taken (false falls back to per-quantum frames).
func TryAppendBatch(buf []byte, chunk []any) (out []byte, ok bool, err error) {
	if len(chunk) < minBatchRows {
		return buf, false, nil
	}
	b, okB := BatchFromRows(chunk)
	if !okB {
		return buf, false, nil
	}
	out, err = AppendColumnBatchBinary(buf, b)
	if err != nil {
		return buf, false, err
	}
	return out, true, nil
}

// --- pooled encode buffers ------------------------------------------------

// Pooled scratch buffers for the binary-encode hot paths (DFS frame writes,
// cache size estimates, shuffles): callers borrow one buffer for the duration of an
// encode loop instead of growing a fresh slice per call site.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<12); return &b }}

// GetEncodeBuf borrows a reusable encode buffer from the pool. Pass the
// pointer back to PutEncodeBuf when done.
func GetEncodeBuf() *[]byte { return encBufPool.Get().(*[]byte) }

// PutEncodeBuf returns a buffer to the pool. Oversized buffers are dropped
// so one huge quantum doesn't pin memory across the process lifetime.
func PutEncodeBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	encBufPool.Put(b)
}

// --- framed streams ------------------------------------------------------

// QuantaEncoder writes a framed binary quanta stream: the magic header
// followed by one uvarint-length-prefixed frame per quantum. The encode
// buffer is reused across quanta.
type QuantaEncoder struct {
	w       *bufio.Writer
	scratch []byte
	lenBuf  [binary.MaxVarintLen64]byte
	started bool
}

// NewQuantaEncoder wraps w in a framed binary quanta stream writer.
func NewQuantaEncoder(w io.Writer) *QuantaEncoder {
	return &QuantaEncoder{w: bufio.NewWriterSize(w, 1<<16)}
}

// Encode appends one quantum to the stream.
func (e *QuantaEncoder) Encode(q any) error {
	buf, err := AppendQuantumBinary(e.scratch[:0], q)
	if err != nil {
		return err
	}
	e.scratch = buf
	return e.writeFrame(buf)
}

// EncodeSlice appends a slice of quanta to the stream, packing runs of
// batchable rows into column-wise batch frames of up to CodecBatchRows rows
// each; non-batchable runs fall back to one frame per quantum. Readers
// expand batch frames transparently, so the two layouts are interchangeable
// on the wire.
func (e *QuantaEncoder) EncodeSlice(quanta []any) error {
	for start := 0; start < len(quanta); start += CodecBatchRows {
		end := min(start+CodecBatchRows, len(quanta))
		chunk := quanta[start:end]
		buf, ok, err := TryAppendBatch(e.scratch[:0], chunk)
		if err != nil {
			return err
		}
		if ok {
			e.scratch = buf
			if err := e.writeFrame(buf); err != nil {
				return err
			}
			continue
		}
		for _, q := range chunk {
			if err := e.Encode(q); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *QuantaEncoder) writeFrame(payload []byte) error {
	if !e.started {
		e.started = true
		if _, err := e.w.WriteString(BinaryQuantaMagic); err != nil {
			return err
		}
	}
	n := binary.PutUvarint(e.lenBuf[:], uint64(len(payload)))
	if _, err := e.w.Write(e.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := e.w.Write(payload); err != nil {
		return err
	}
	addCodecBytes(n + len(payload))
	return nil
}

// Flush completes the stream. An empty stream still gets its magic header.
func (e *QuantaEncoder) Flush() error {
	if !e.started {
		e.started = true
		if _, err := e.w.WriteString(BinaryQuantaMagic); err != nil {
			return err
		}
	}
	return e.w.Flush()
}

// WriteQuantaStream encodes quanta as a framed binary stream on w,
// column-batching runs of batchable rows (see EncodeSlice).
func WriteQuantaStream(w io.Writer, quanta []any) error {
	enc := NewQuantaEncoder(w)
	if err := enc.EncodeSlice(quanta); err != nil {
		return err
	}
	return enc.Flush()
}

// ReadQuantaStream decodes a framed binary quanta stream to row-major
// quanta, batch frames expanded to their rows; zero quanta come back nil.
func ReadQuantaStream(r io.Reader) ([]any, error) {
	segs, err := ReadQuantaStreamSegments(r)
	if err != nil {
		return nil, err
	}
	return SegmentRows(segs), nil
}

// decodeFrame decodes one frame of a quanta stream: a *ColumnBatch when the
// whole frame is a batch, else the one quantum DecodeQuantumBinary gives.
func decodeFrame(frame []byte) (any, error) {
	if len(frame) == 0 || frame[0] != binBatch {
		return DecodeQuantumBinary(frame)
	}
	b, rest, err := decodeColumnBatch(frame[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptQuantum, len(rest))
	}
	return b, nil
}

// AppendFrameRows decodes one frame of a quanta stream and appends its
// quanta to dst: a batch frame's rows, or the frame's one quantum.
func AppendFrameRows(dst []any, frame []byte) ([]any, error) {
	q, err := decodeFrame(frame)
	if err != nil {
		return nil, err
	}
	if b, ok := q.(*ColumnBatch); ok {
		return b.AppendRows(dst), nil
	}
	return append(dst, q), nil
}

// readFrame reads an n-byte frame into buf's storage, growing it only as
// bytes arrive, so a corrupt length prefix allocates no more than the stream
// holds.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(cap(buf)-len(buf), 1<<16))
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// readBinarySegments decodes the stream's frames, keeping batch frames
// column-major and coalescing consecutive row frames into one segment.
func readBinarySegments(br *bufio.Reader) ([]Segment, error) {
	var segs []Segment
	var rows []any
	flushRows := func() {
		if len(rows) > 0 {
			segs = append(segs, Segment{Rows: rows})
			rows = nil
		}
	}
	var frame []byte
	for {
		n, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			flushRows()
			return segs, nil // clean end between frames
		}
		if err != nil {
			return nil, fmt.Errorf("%w: frame length: %v", ErrCorruptQuantum, err)
		}
		if n > 1<<31 {
			return nil, fmt.Errorf("%w: frame length %d", ErrCorruptQuantum, n)
		}
		if frame, err = readFrame(br, frame, int(n)); err != nil {
			return nil, fmt.Errorf("%w: truncated frame: %v", ErrCorruptQuantum, err)
		}
		addCodecBytes(int(n))
		q, err := decodeFrame(frame)
		if err != nil {
			return nil, err
		}
		if cb, ok := q.(*ColumnBatch); ok {
			flushRows()
			segs = append(segs, Segment{Batch: cb})
			continue
		}
		rows = append(rows, q)
	}
}

// ReadQuantaStreamSegments decodes a framed binary quanta stream, the one
// format quanta streams, files and DFS files are written in, to the codec's
// decoded form: batch frames as column-batch segments. A zero-length stream
// is zero quanta; any other input that does not begin with BinaryQuantaMagic
// is ErrCorruptQuantum.
func ReadQuantaStreamSegments(r io.Reader) ([]Segment, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(BinaryQuantaMagic))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("core: read quanta stream: %w", err)
	}
	if len(head) == 0 {
		return nil, nil
	}
	if string(head) != BinaryQuantaMagic {
		return nil, fmt.Errorf("%w: stream does not begin with %q", ErrCorruptQuantum, BinaryQuantaMagic)
	}
	br.Discard(len(BinaryQuantaMagic))
	return readBinarySegments(br)
}
