package driverutil

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"rheem/internal/core"
)

// randRows builds a random run of Record rows.
func randRows(rng *rand.Rand) []any {
	rows := make([]any, rng.Intn(1000))
	for i := range rows {
		rows[i] = core.Record{int64(rng.Intn(50)), fmt.Sprintf("g%d", rng.Intn(4))}
	}
	return rows
}

// TestSplitRowsBoundaryIdentity checks the engines' one partitioner: SplitRows
// must reproduce exactly the ceil-chunk boundaries, whatever the row count.
func TestSplitRowsBoundaryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		flat := randRows(rng)
		n := 1 + rng.Intn(8)
		parts := SplitRows(flat, n)
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
			want := flat[lo:hi]
			if len(part) != len(want) || (len(want) > 0 && !reflect.DeepEqual(part, want)) {
				t.Fatalf("trial %d part %d: %d rows, want %d (rows differ)", trial, i, len(part), len(want))
			}
		}
	}
}

// TestSplitRowsPartitionsDoNotBleed: partitions cut from one row run must not
// share spare capacity — an append to one would otherwise overwrite the first
// rows of the next (a caller-owned collection enters as one run).
func TestSplitRowsPartitionsDoNotBleed(t *testing.T) {
	src := []any{int64(1), int64(2), int64(3), int64(4)}
	parts := SplitRows(src, 2)
	_ = append(parts[0], int64(42))
	if got := parts[1][0]; got != int64(3) {
		t.Fatalf("append to partition 0 wrote %v into partition 1", got)
	}
}

// TestChannelSliceIsTotal: every payload a collection or file channel carries
// comes back as rows over the same quanta — a quanta file written with batch
// frames included; slices are aliased, not copied.
func TestChannelSliceIsTotal(t *testing.T) {
	data := []any{int64(1), "two", core.Record{int64(3)}}
	batched := make([]any, core.CodecBatchRows+5)
	for i := range batched {
		batched[i] = core.Record{int64(i), fmt.Sprintf("g%d", i%3)}
	}
	dir := t.TempDir()
	path, batchPath := filepath.Join(dir, "q.rqb"), filepath.Join(dir, "b.rqb")
	if err := core.WriteQuantaFile(path, data); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteQuantaFile(batchPath, batched); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		payload any
		want    []any
	}{
		"slice-dataset": {core.NewSliceDataset(data), data},
		"bare-slice":    {data, data},
		"file":          {path, data},
		"batched-file":  {batchPath, batched},
	} {
		ch := core.NewChannel(core.CollectionChannel, tc.payload, -1)
		// ChannelSlice and ChannelQuanta are the row view of the same quanta.
		for _, view := range []func(*core.Channel) ([]any, error){ChannelSlice, ChannelQuanta} {
			if got, err := view(ch); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: row view %d quanta (err %v), want %d", name, len(got), err, len(tc.want))
			}
		}
	}
	rows, _ := ChannelSlice(core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), 3))
	if len(rows) != len(data) || &rows[0] != &data[0] {
		t.Error("a slice payload was copied, not carried aliased")
	}
	if _, err := ChannelSlice(core.NewChannel(core.CollectionChannel, 42, -1)); err == nil {
		t.Error("a payload that carries no quanta was accepted")
	}
}
