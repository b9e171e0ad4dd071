package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randQuantum builds a randomly nested quantum with depth-limited recursion
// over every type the codec supports.
func randQuantum(r *rand.Rand, depth int) any {
	scalar := func() any {
		switch r.Intn(7) {
		case 0:
			return nil
		case 1:
			return r.Intn(2) == 0
		case 2:
			return r.Int63() - r.Int63() // mixes signs and magnitudes
		case 3:
			return r.NormFloat64() * math.Pow(10, float64(r.Intn(10)))
		case 4:
			return randString(r)
		case 5:
			fs := make([]float64, r.Intn(4))
			for i := range fs {
				fs[i] = r.Float64()
			}
			return fs
		default:
			return int64(r.Intn(100))
		}
	}
	if depth <= 0 || r.Intn(3) == 0 {
		return scalar()
	}
	elems := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = randQuantum(r, depth-1)
		}
		return out
	}
	switch r.Intn(5) {
	case 0:
		return Record(elems(1 + r.Intn(4)))
	case 1:
		return KV{Key: randQuantum(r, depth-1), Value: randQuantum(r, depth-1)}
	case 2:
		return Edge{Src: r.Int63n(1000), Dst: r.Int63n(1000)}
	case 3:
		return Group{Key: randQuantum(r, depth-1), Values: elems(r.Intn(4))}
	default:
		return elems(1 + r.Intn(3))
	}
}

func randString(r *rand.Rand) string {
	const alphabet = "abcdefghij κλμ\x00\n\"\\"
	runes := []rune(alphabet)
	n := r.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[r.Intn(len(runes))])
	}
	return sb.String()
}

func TestBinaryCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		q := randQuantum(r, 4)
		raw, err := AppendQuantumBinary(nil, q)
		if err != nil {
			t.Fatalf("encode %#v: %v", q, err)
		}
		back, err := DecodeQuantumBinary(raw)
		if err != nil {
			t.Fatalf("decode %#v: %v", q, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("round trip %d: got %#v, want %#v", i, back, q)
		}
	}
}

// TestBinaryCodecMatchesJSONCodec: both codecs must decode to identical
// in-memory values, since readers auto-detect the format and downstream
// UDFs depend on exact types either way.
func TestBinaryCodecMatchesJSONCodec(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := randQuantum(r, 3)
		bin, err := AppendQuantumBinary(nil, q)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		line, err := EncodeQuantum(q)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		fromBin, err := DecodeQuantumBinary(bin)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		fromJSON, err := DecodeQuantum(line)
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Fatalf("codecs disagree for %#v: binary %#v, json %#v", q, fromBin, fromJSON)
		}
	}
}

func TestBinaryCodecIntWidening(t *testing.T) {
	// Plain ints widen to int64, matching the JSON codec's decode side.
	raw, err := AppendQuantumBinary(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeQuantumBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.(int64); !ok || v != 7 {
		t.Fatalf("int decoded as %T %v, want int64 7", back, back)
	}
}

// goodQuantum is the encoding TestDecodeQuantumBinaryCorrupt truncates and
// pads.
func goodQuantum(tb testing.TB) []byte {
	good, err := AppendQuantumBinary(nil, Record{"abc", int64(5), []any{1.5, "x"}})
	if err != nil {
		tb.Fatal(err)
	}
	return good
}

func TestDecodeQuantumBinaryCorrupt(t *testing.T) {
	good := goodQuantum(t)
	// Every truncation must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeQuantumBinary(good[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is rejected (a frame is exactly one quantum).
	if _, err := DecodeQuantumBinary(append(append([]byte{}, good...), 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown tag.
	if _, err := DecodeQuantumBinary([]byte{0xff}); err == nil {
		t.Error("unknown tag accepted")
	}
	// A corrupt huge length must not attempt the allocation.
	if _, err := DecodeQuantumBinary([]byte{binString, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("oversized length accepted")
	}
	// A column batch decodes only as a whole frame of a stream: nested in a
	// quantum, or handed to DecodeQuantumBinary on its own, it is corrupt,
	// and a stream carrying such a quantum fails.
	for name, input := range nestedBatchInputs(t) {
		if q, err := DecodeQuantumBinary(input); !errors.Is(err, ErrCorruptQuantum) {
			t.Errorf("%s: decoded to %#v (err %v), want ErrCorruptQuantum", name, q, err)
		}
		if name == "top-level" {
			continue // a whole batch frame is what a stream may carry
		}
		if _, err := ReadQuantaStream(bytes.NewReader(framed(input))); !errors.Is(err, ErrCorruptQuantum) {
			t.Errorf("%s: stream read returned %v, want ErrCorruptQuantum", name, err)
		}
	}
}

// nestedBatchInputs returns a column batch's encoding on its own and nested
// wherever a quantum may hold a value: a record, a slice, a KV's key and
// value, a group's key and values, and an escape column of another batch.
func nestedBatchInputs(t testing.TB) map[string][]byte {
	b, ok := BatchFromRows(corruptionGuardRows)
	if !ok {
		t.Fatal("BatchFromRows refused uniform records")
	}
	batch, err := AppendColumnBatchBinary(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"top-level":   batch,
		"record":      cat([]byte{binRecord, 1}, batch),
		"slice":       cat([]byte{binSlice, 1}, batch),
		"kv-key":      cat([]byte{binKV}, batch, []byte{binNil}),
		"kv-value":    cat([]byte{binKV, binNil}, batch),
		"group-key":   cat([]byte{binGroup}, batch, []byte{0}),
		"group-value": cat([]byte{binGroup, binNil, 1}, batch),
		"escape":      cat([]byte{binBatch, 0, 1, 1, byte(ColAny), 0}, batch),
	}
}

// framed wraps one frame as a quanta stream.
func framed(frame []byte) []byte {
	return append(binary.AppendUvarint([]byte(BinaryQuantaMagic), uint64(len(frame))), frame...)
}

// hostileLengthInputs are streams whose length prefixes claim far more than
// they hold: a frame of 1 GiB, and batch frames claiming 2^20 rows of each
// column kind whose rows need at least a byte each (or, for the dictionary,
// 2^20 entries).
func hostileLengthInputs() map[string][]byte {
	rows := binary.AppendUvarint(nil, 1<<20)
	batch := func(col ...byte) []byte {
		f := append([]byte{binBatch, 0}, rows...)
		return append(append(f, 1), col...)
	}
	return map[string][]byte{
		"frame":      append(binary.AppendUvarint([]byte(BinaryQuantaMagic), 1<<30), "abc"...),
		"any-rows":   framed(batch(byte(ColAny), 0, binNil)),
		"int-rows":   framed(batch(byte(ColInt64), 0, 0)),
		"str-rows":   framed(batch(byte(ColString), 0, 0)),
		"dict-size":  framed(batch(binDict, 0, 0x80, 0x80, 0x40, 0)),
		"dict-codes": framed(batch(binDict, 0, 1, 0, 0)),
		"columns":    framed([]byte{binBatch, 0, 0, 0x80, 0x80, 0x04, 0, 0}),
	}
}

// TestReadQuantaStreamHostileLengths: a length prefix or a batch header that
// claims more than the input holds is corrupt, and rejecting it allocates
// well under what it claims — the frame buffer grows only as bytes arrive,
// and a batch column is allocated only once the bytes left can hold its
// minimum encoding.
func TestReadQuantaStreamHostileLengths(t *testing.T) {
	for name, input := range hostileLengthInputs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadQuantaStream(bytes.NewReader(input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptQuantum) {
			t.Errorf("%s: %v, want ErrCorruptQuantum", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", name, len(input), n)
		}
	}
}

// threeFrames is a stream of three row frames.
func threeFrames(tb testing.TB) []byte {
	var buf bytes.Buffer
	enc := NewQuantaEncoder(&buf)
	for _, q := range []any{"one", "two", "three"} {
		if err := enc.Encode(q); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadQuantaStreamTruncatedFrame(t *testing.T) {
	full := threeFrames(t)
	// Cut inside the last frame: the stream must error, not return short.
	if _, err := ReadQuantaStream(bytes.NewReader(full[:len(full)-2])); err == nil {
		t.Error("truncated stream read without error")
	}
	if got, err := ReadQuantaStream(bytes.NewReader(full)); err != nil || len(got) != 3 {
		t.Errorf("full stream: %v quanta, err %v", got, err)
	}
}

// legacyInputs are non-empty inputs that do not begin with the magic: tagged
// JSON lines, a short read, another magic, a blank line, the magic mid-input.
func legacyInputs(tb testing.TB) map[string][]byte {
	var lines []string
	for _, q := range []any{"a", Record{int64(1), "b"}, KV{Key: "k", Value: int64(2)}, nil, 1.5} {
		line, err := EncodeQuantum(q)
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	return map[string][]byte{
		"json-lines":   []byte(strings.Join(lines, "\n") + "\n"),
		"short":        []byte("RQ"),
		"wrong-magic":  []byte("RQB2\x01\x00"),
		"blank-line":   []byte("\n"),
		"magic-in-mid": append([]byte("x"), BinaryQuantaMagic...),
	}
}

// TestReadQuantaFileLegacyJSON: RQB1 is the only at-rest format. Tagged
// JSON lines (what quanta files held before the binary codec), or any other
// non-empty input that does not begin with the magic, is rejected as corrupt
// by the stream and file readers — never guessed at as JSON. A zero-length
// stream stays zero quanta.
func TestReadQuantaFileLegacyJSON(t *testing.T) {
	for name, input := range legacyInputs(t) {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errStream := ReadQuantaStream(bytes.NewReader(input))
		_, errSegs := ReadQuantaStreamSegments(bytes.NewReader(input))
		_, errFile := ReadQuantaFile(path)
		for reader, err := range map[string]error{
			"ReadQuantaStream": errStream, "ReadQuantaStreamSegments": errSegs,
			"ReadQuantaFile": errFile,
		} {
			if !errors.Is(err, ErrCorruptQuantum) {
				t.Errorf("%s: %s returned %v, want ErrCorruptQuantum", name, reader, err)
			}
		}
	}
	if got, err := ReadQuantaStream(bytes.NewReader(nil)); err != nil || got != nil {
		t.Errorf("zero-length stream: %v, %v; want nil quanta, no error", got, err)
	}
}

func TestWriteQuantaFileIsBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quanta.rqb")
	in := []any{"x", int64(9), Record{1.5}}
	if err := WriteQuantaFile(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(BinaryQuantaMagic)) {
		t.Fatalf("file does not start with %q: % x", BinaryQuantaMagic, raw[:8])
	}
	out, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %#v, want %#v", out, in)
	}
}

func TestWriteQuantaFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.rqb")
	if err := WriteQuantaFile(path, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty file decoded to %v", out)
	}
}

// TestWriteQuantaFileAtomicOnError: an encoding failure mid-write must not
// leave a partial file behind — neither at the target path nor as a stray
// temp file.
func TestWriteQuantaFileAtomicOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.rqb")
	// Pre-existing content must survive a failed overwrite.
	if err := WriteQuantaFile(path, []any{"keep"}); err != nil {
		t.Fatal(err)
	}
	bad := []any{"ok", make(chan int)} // channels are not encodable
	if err := WriteQuantaFile(path, bad); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	out, err := ReadQuantaFile(path)
	if err != nil || !reflect.DeepEqual(out, []any{"keep"}) {
		t.Fatalf("previous content clobbered: %v, %v", out, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("stray files left after failed write: %v", names)
	}
}
