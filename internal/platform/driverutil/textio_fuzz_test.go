package driverutil

import (
	"reflect"
	"testing"

	"rheem/internal/storage/dfs"
)

// FuzzTextSplits: for any file content, block size and number of splits
// wanted, the splits ReadTextParts cuts a DFS file into concatenate to
// dfs.ReadLines of the file, each line once and in order, on a serial and a
// parallel scheduler. The seeds are the files of TestTextSplitsCoverFile.
func FuzzTextSplits(f *testing.F) {
	for _, file := range textFiles() {
		for _, n := range []uint8{1, 2, 4, 7} {
			f.Add([]byte(file.content), uint16(textBlock), n)
		}
	}
	f.Fuzz(func(t *testing.T, content []byte, block uint16, n uint8) {
		blockSize := max(int64(block%513), 1)
		// At most 64 blocks, so that a case writes a few files, not thousands.
		content = content[:min(int64(len(content)), 64*blockSize)]
		store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: blockSize, Replication: 1, Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		w, err := store.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(content); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := store.ReadLines("f")
		if err != nil {
			t.Fatal(err)
		}
		splits := max(int(n%9), 1)
		for _, s := range []Scheduler{Serial{}, &pooled{width: 3}} {
			parts, err := ReadTextParts(s, store, dfs.Scheme+"f", splits)
			if err != nil {
				t.Fatalf("block %d, n=%d: %v", blockSize, splits, err)
			}
			var got []string
			for _, part := range parts {
				for _, q := range part {
					got = append(got, q.(string))
				}
			}
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("block %d, n=%d: splits read %q, want %q", blockSize, splits, got, want)
			}
		}
	})
}
