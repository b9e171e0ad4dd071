package core

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzReadQuantaStream feeds arbitrary bytes to the stream reader. It must
// never panic; a stream it accepts holds no column batch inside any quantum,
// and its rows re-encoded with WriteQuantaStream read back as as many
// quanta. The seeds — the inputs of the codec's corruption tests and one
// valid stream of row, batch and dictionary frames — run as a plain test.
func FuzzReadQuantaStream(f *testing.F) {
	good := goodQuantum(f)
	var seeds [][]byte
	for n := 0; n < len(good); n++ {
		seeds = append(seeds, good[:n])
	}
	seeds = append(seeds,
		append(append([]byte{}, good...), 0x01),
		[]byte{0xff},
		[]byte{binString, 0xff, 0xff, 0xff, 0xff, 0x7f},
	)
	nested := nestedBatchInputs(f)
	for _, input := range nested {
		seeds = append(seeds, input)
	}
	for _, input := range hostileLengthInputs() {
		seeds = append(seeds, input)
	}
	full := threeFrames(f)
	seeds = append(seeds, full, full[:len(full)-2])
	for _, input := range legacyInputs(f) {
		seeds = append(seeds, input)
	}
	batch := nested["top-level"] // TestColumnBatchCodecCorruptionGuards' batch
	for cut := 1; cut < len(batch); cut++ {
		seeds = append(seeds, batch[:cut])
	}

	// A valid stream mixing the three frame kinds: row frames, a plain batch
	// frame and a batch with a dictionary column.
	var mixed bytes.Buffer
	enc := NewQuantaEncoder(&mixed)
	for _, chunk := range [][]any{
		{KV{Key: "k", Value: int64(1)}, Edge{Src: 1, Dst: 2}},
		seqRecords(minBatchRows, func(i int) any { return float64(i) / 4 }),
		seqRecords(minBatchRows, func(i int) any { return fmt.Sprintf("g%d", i%3) }),
	} {
		if err := enc.EncodeSlice(chunk); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	segs, err := ReadQuantaStreamSegments(bytes.NewReader(mixed.Bytes()))
	if err != nil || len(segs) != 3 || segs[1].Batch == nil || segs[2].Batch == nil || !segs[2].Batch.Cols[1].DictEncoded() {
		f.Fatalf("the mixed seed is not row, batch and dictionary frames (err %v)", err)
	}
	seeds = append(seeds, mixed.Bytes())

	for _, input := range seeds {
		f.Add(input) // as a stream
		if !bytes.HasPrefix(input, []byte(BinaryQuantaMagic)) {
			f.Add(framed(input)) // and as the one frame of a stream
		}
	}

	f.Fuzz(func(t *testing.T, input []byte) {
		quanta, err := ReadQuantaStream(bytes.NewReader(input))
		if err != nil {
			return
		}
		for i, q := range quanta {
			if holdsBatch(q) {
				t.Fatalf("quantum %d holds a column batch: %#v", i, q)
			}
		}
		var buf bytes.Buffer
		if err := WriteQuantaStream(&buf, quanta); err != nil {
			t.Fatalf("re-encoding %d accepted quanta: %v", len(quanta), err)
		}
		back, err := ReadQuantaStream(&buf)
		if err != nil {
			t.Fatalf("reading back %d re-encoded quanta: %v", len(quanta), err)
		}
		if len(back) != len(quanta) {
			t.Fatalf("re-encoded %d quanta, read back %d", len(quanta), len(back))
		}
	})
}

// seqRecords returns n two-column records: the index and v(index).
func seqRecords(n int, v func(int) any) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = Record{int64(i), v(i)}
	}
	return out
}

// holdsBatch reports whether q is or contains a column batch.
func holdsBatch(q any) bool {
	switch v := q.(type) {
	case *ColumnBatch:
		return true
	case Record:
		return anyHoldsBatch(v)
	case []any:
		return anyHoldsBatch(v)
	case KV:
		return holdsBatch(v.Key) || holdsBatch(v.Value)
	case Group:
		return holdsBatch(v.Key) || anyHoldsBatch(v.Values)
	}
	return false
}

func anyHoldsBatch(vs []any) bool {
	for _, v := range vs {
		if holdsBatch(v) {
			return true
		}
	}
	return false
}
