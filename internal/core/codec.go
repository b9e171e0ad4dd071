package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Tagged-JSON quantum codec: values are JSON with a one-letter type tag,
// applied recursively, so heterogeneous and nested quantum types (records
// of KVs of int64s, ...) round-trip faithfully — a UDF downstream of a
// conversion must see exactly the types its producer emitted.
//
// This is the human-readable wire format (REST responses, external-system
// emulations). Data movement and quanta at rest use the binary codec in
// bincodec.go, the only format the quanta readers accept.

type taggedQuantum struct {
	T string          `json:"t"`
	V json.RawMessage `json:"v"`
}

// EncodeQuantum serializes one quantum to a tagged JSON document.
func EncodeQuantum(q any) ([]byte, error) {
	var tag string
	var payload any
	switch v := q.(type) {
	case string:
		tag, payload = "s", v
	case float64:
		tag, payload = "f", v
	case int:
		tag, payload = "i", int64(v)
	case int64:
		tag, payload = "i", v
	case bool:
		tag, payload = "b", v
	case nil:
		tag, payload = "n", nil
	case []float64:
		tag, payload = "F", v
	case Record:
		parts, err := encodeSlice([]any(v))
		if err != nil {
			return nil, err
		}
		tag, payload = "r", parts
	case []any:
		parts, err := encodeSlice(v)
		if err != nil {
			return nil, err
		}
		tag, payload = "a", parts
	case KV:
		key, err := EncodeQuantum(v.Key)
		if err != nil {
			return nil, err
		}
		val, err := EncodeQuantum(v.Value)
		if err != nil {
			return nil, err
		}
		tag, payload = "k", [2]json.RawMessage{key, val}
	case Edge:
		tag, payload = "e", [2]int64{v.Src, v.Dst}
	case Group:
		key, err := EncodeQuantum(v.Key)
		if err != nil {
			return nil, err
		}
		vals, err := encodeSlice(v.Values)
		if err != nil {
			return nil, err
		}
		raws, err := json.Marshal(vals)
		if err != nil {
			return nil, err
		}
		tag, payload = "g", [2]json.RawMessage{key, raws}
	default:
		tag, payload = "j", v // best effort: plain JSON (numbers decode as float64)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("core: encode quantum %T: %w", q, err)
	}
	return json.Marshal(taggedQuantum{T: tag, V: raw})
}

func encodeSlice(vs []any) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		raw, err := EncodeQuantum(v)
		if err != nil {
			return nil, err
		}
		out[i] = raw
	}
	return out, nil
}

// DecodeQuantum parses a tagged JSON document back into a quantum.
func DecodeQuantum(line []byte) (any, error) {
	var tq taggedQuantum
	if err := json.Unmarshal(line, &tq); err != nil {
		return nil, fmt.Errorf("core: decode quantum: %w", err)
	}
	switch tq.T {
	case "s":
		var s string
		return s, json.Unmarshal(tq.V, &s)
	case "f":
		var f float64
		return f, json.Unmarshal(tq.V, &f)
	case "i":
		var i int64
		return i, json.Unmarshal(tq.V, &i)
	case "b":
		var b bool
		return b, json.Unmarshal(tq.V, &b)
	case "n":
		return nil, nil
	case "F":
		var f []float64
		return f, json.Unmarshal(tq.V, &f)
	case "r":
		vs, err := decodeSliceRaw(tq.V)
		return Record(vs), err
	case "a":
		return decodeSliceRaw(tq.V)
	case "k":
		var kv [2]json.RawMessage
		if err := json.Unmarshal(tq.V, &kv); err != nil {
			return nil, err
		}
		key, err := DecodeQuantum(kv[0])
		if err != nil {
			return nil, err
		}
		val, err := DecodeQuantum(kv[1])
		if err != nil {
			return nil, err
		}
		return KV{Key: key, Value: val}, nil
	case "e":
		var e [2]int64
		if err := json.Unmarshal(tq.V, &e); err != nil {
			return nil, err
		}
		return Edge{Src: e[0], Dst: e[1]}, nil
	case "g":
		var g [2]json.RawMessage
		if err := json.Unmarshal(tq.V, &g); err != nil {
			return nil, err
		}
		key, err := DecodeQuantum(g[0])
		if err != nil {
			return nil, err
		}
		vals, err := decodeSliceRaw(g[1])
		if err != nil {
			return nil, err
		}
		return Group{Key: key, Values: vals}, nil
	default:
		var v any
		return v, json.Unmarshal(tq.V, &v)
	}
}

func decodeSliceRaw(raw json.RawMessage) ([]any, error) {
	var parts []json.RawMessage
	if err := json.Unmarshal(raw, &parts); err != nil {
		return nil, err
	}
	out := make([]any, len(parts))
	for i, p := range parts {
		v, err := DecodeQuantum(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WriteQuantaFile encodes quanta to a file in the framed binary format
// (see bincodec.go). The file is written via a temporary sibling and
// renamed into place on success, so an encode or flush error never leaves
// a partially-written file behind at path.
func WriteQuantaFile(path string, quanta []any) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".quanta-*.tmp")
	if err != nil {
		return fmt.Errorf("core: write quanta file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	enc := NewQuantaEncoder(f)
	if err := enc.EncodeSlice(quanta); err != nil {
		return fail(err)
	}
	if err := enc.Flush(); err != nil {
		return fail(fmt.Errorf("core: flush quanta file: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: close quanta file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: finalize quanta file: %w", err)
	}
	return nil
}

// ReadQuantaFile decodes a file written by WriteQuantaFile to row-major
// quanta (see ReadQuantaStream).
func ReadQuantaFile(path string) ([]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: read quanta file: %w", err)
	}
	defer f.Close()
	return ReadQuantaStream(f)
}

// ReadTextFile reads a plain text file into one string quantum per line.
func ReadTextFile(path string) ([]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: read text file: %w", err)
	}
	defer f.Close()
	var out []any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: scan text file: %w", err)
	}
	return out, nil
}

// WriteTextFile writes formatted quanta to a plain text file.
func WriteTextFile(path string, quanta []any, format func(any) string) error {
	if format == nil {
		format = func(q any) string { return fmt.Sprint(q) }
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: write text file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for _, q := range quanta {
		w.WriteString(format(q))
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: flush text file: %w", err)
	}
	return f.Close()
}
