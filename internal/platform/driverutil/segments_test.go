package driverutil

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"rheem/internal/core"
)

// randSegs builds a random run of row and batch segments over Record rows.
func randSegs(rng *rand.Rand) ([]core.Segment, []any) {
	var segs []core.Segment
	var flat []any
	for k := 0; k < 1+rng.Intn(6); k++ {
		n := 1 + rng.Intn(200)
		rows := make([]any, n)
		for i := range rows {
			rows[i] = core.Record{int64(rng.Intn(50)), fmt.Sprintf("g%d", rng.Intn(4))}
		}
		flat = append(flat, rows...)
		if rng.Intn(2) == 0 && n >= 2 {
			b, ok := core.BatchFromRows(rows)
			if !ok {
				panic("BatchFromRows failed on uniform records")
			}
			segs = append(segs, core.Segment{Batch: b})
			continue
		}
		segs = append(segs, core.Segment{Rows: rows})
	}
	return segs, flat
}

// TestSplitSegmentsBoundaryIdentity checks the cardinal rule of batch-native
// movement: SplitSegments must reproduce exactly the ceil-chunk boundaries
// the engines' row partitioners use, whatever the segment shapes.
func TestSplitSegmentsBoundaryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		segs, flat := randSegs(rng)
		n := 1 + rng.Intn(8)
		parts := SplitSegments(segs, n)
		if len(parts) != n {
			t.Fatalf("trial %d: %d parts, want %d", trial, len(parts), n)
		}
		chunk := (len(flat) + n - 1) / n
		for i, part := range parts {
			lo := i * chunk
			hi := min(lo+chunk, len(flat))
			if lo > hi {
				lo = hi
			}
			got := core.SegmentRows(part)
			want := flat[lo:hi]
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, append([]any(nil), want...)) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("trial %d part %d: %d rows, want %d (rows differ)", trial, i, len(got), len(want))
			}
		}
	}
}

func TestSplitSegmentsKeepsWholeBatchesNative(t *testing.T) {
	rows := make([]any, 100)
	for i := range rows {
		rows[i] = core.Record{int64(i)}
	}
	b, _ := core.BatchFromRows(rows[:50])
	b2, _ := core.BatchFromRows(rows[50:])
	parts := SplitSegments([]core.Segment{{Batch: b}, {Batch: b2}}, 2)
	// The boundary falls exactly between the two batches: both stay native.
	if parts[0][0].Batch == nil || parts[1][0].Batch == nil {
		t.Fatal("aligned batches lost their native form")
	}
	// A straddling boundary expands only the straddled batch.
	parts = SplitSegments([]core.Segment{{Batch: b}, {Batch: b2}}, 3)
	total := 0
	for _, p := range parts {
		total += len(core.SegmentRows(p))
	}
	if total != 100 {
		t.Fatalf("split lost rows: %d", total)
	}
}

func TestReadQuantaFileSegmentsNativeBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.rqb")
	quanta := make([]any, 2*core.CodecBatchRows+7)
	for i := range quanta {
		quanta[i] = core.Record{int64(i), fmt.Sprintf("g%d", i%3)}
	}
	quanta = append(quanta, core.KV{Key: "tail", Value: int64(9)}) // unbatchable tail
	if err := core.WriteQuantaFile(path, quanta); err != nil {
		t.Fatal(err)
	}
	segs, err := core.ReadQuantaFileSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	var sawBatch bool
	for _, s := range segs {
		if s.Batch != nil {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatal("no native batch segment decoded from a batch-framed file")
	}
	if got := core.SegmentRows(segs); !reflect.DeepEqual(got, quanta) {
		t.Fatalf("segment read mismatch: %d vs %d quanta", len(got), len(quanta))
	}
	// The row reader over the same file agrees.
	rows, err := core.ReadQuantaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, quanta) {
		t.Fatal("row reader disagrees with writer")
	}
}

// TestSplitSegmentsPartitionsDoNotBleed: partitions cut from one row run must
// not share spare capacity — an append to one would otherwise overwrite the
// first rows of the next (a caller-owned collection enters as one run).
func TestSplitSegmentsPartitionsDoNotBleed(t *testing.T) {
	src := []any{int64(1), int64(2), int64(3), int64(4)}
	parts := SplitSegments([]core.Segment{{Rows: src}}, 2)
	_ = append(parts[0][0].Rows, int64(42))
	if got := parts[1][0].Rows[0]; got != int64(3) {
		t.Fatalf("append to partition 0 wrote %v into partition 1", got)
	}
}

// TestChannelSegmentsIsTotal: every payload a collection or file channel
// carries comes back as a segment run over the same quanta; slices are
// aliased (one row run), not copied.
func TestChannelSegmentsIsTotal(t *testing.T) {
	data := []any{int64(1), "two", core.Record{int64(3)}}
	batch, ok := core.BatchFromRows([]any{core.Record{int64(7)}, core.Record{int64(8)}})
	if !ok {
		t.Fatal("BatchFromRows refused uniform records")
	}
	path := filepath.Join(t.TempDir(), "q.rqb")
	if err := core.WriteQuantaFile(path, data); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		payload any
		want    []any
	}{
		"slice-dataset": {core.NewSliceDataset(data), data},
		"bare-slice":    {data, data},
		"segmented":     {core.NewSegmentedDataset([]core.Segment{{Rows: data}, {Batch: batch}}), append(append([]any{}, data...), batch.AppendRows(nil)...)},
		"file":          {path, data},
	} {
		ch := core.NewChannel(core.CollectionChannel, tc.payload, -1)
		segs, err := ChannelSegments(ch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := core.SegmentRows(segs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %v, want %v", name, got, tc.want)
		}
		// ChannelSlice and ChannelQuanta are the row view of the same run.
		for _, view := range []func(*core.Channel) ([]any, error){ChannelSlice, ChannelQuanta} {
			if got, err := view(ch); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: row view %v (err %v), want %v", name, got, err, tc.want)
			}
		}
	}
	segs, _ := ChannelSegments(core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), 3))
	if len(segs) != 1 || &segs[0].Rows[0] != &data[0] {
		t.Error("a slice payload was copied, not carried as one aliased row run")
	}
	if _, err := ChannelSegments(core.NewChannel(core.CollectionChannel, 42, -1)); err == nil {
		t.Error("a payload that carries no quanta was accepted")
	}
}
