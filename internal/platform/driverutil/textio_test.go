package driverutil

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rheem/internal/storage/dfs"
)

// textBlock is the block size of the files TestTextSplitsCoverFile cuts.
const textBlock = 64

// textFiles are raw file contents, each with the number of textBlock-byte
// blocks it fills: short and long lines over one, two and five blocks, and the
// edge cases of the record-reader convention.
func textFiles() map[string]struct {
	content string
	blocks  int
} {
	lines := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d:%s\n", i, strings.Repeat("ab", i%5))
		}
		return b.String()
	}
	return map[string]struct {
		content string
		blocks  int
	}{
		"one-block":      {lines(6), 1},
		"two-blocks":     {lines(12), 2},
		"five-blocks":    {lines(34), 5},
		"empty":          {"", 1},
		"no-newline":     {"one line and no newline", 1},
		"last-at-a-cut":  {"aaa\nbbbb", 1}, // the last line starts where 2 and 4 splits cut
		"empty-lines":    {"\n\nx\n\n\n" + strings.Repeat("\n", 70) + "y\n\n", 2},
		"long-line":      {"a\n" + strings.Repeat("L", 150) + "\nb\nc\n" + lines(6), 4},
		"straddle-three": {"head\n" + strings.Repeat("S", 130) + "\ntail", 3},
		"crlf":           {"a\r\nbb\r\n\r\n" + strings.Repeat("c", 60) + "\r\nd", 2},
		// The split reader's edges: a line longer than the split buffer,
		// CRLF lines cut at many splits, and one block of 64 bytes that two
		// splits cut at 32 with the first line's newline the last byte of
		// split 0, or the first byte of split 1.
		"longer-than-buffer":   {"a\n" + strings.Repeat("L", longLine) + "\nb\n", (longLine + 4 + textBlock - 1) / textBlock},
		"crlf-cut":             {strings.Repeat("ab\r\n", 40) + "end\r\n", 3},
		"newline-ends-split":   {strings.Repeat("x", 31) + "\n" + strings.Repeat("y", 31) + "\n", 1},
		"newline-starts-split": {strings.Repeat("x", 32) + "\n" + strings.Repeat("y", 30) + "\n", 1},
	}
}

// longLine is longer than three split buffers of a textBlock-byte split.
var longLine = len(dfs.SplitBuffer(textBlock))*3 + 7

// TestTextSplitsCoverFile: for n of 1, 2, 4 and 7, the splits ReadTextParts
// cuts a DFS line file into concatenate to dfs.ReadLines — every line exactly
// once, in order — on a serial and a parallel scheduler; a one-block file of
// at least n² bytes gives at least n splits.
func TestTextSplitsCoverFile(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: textBlock, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range textFiles() {
		w, err := store.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(f.content)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		size, blocks, err := store.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) != f.blocks {
			t.Fatalf("%s: %d blocks, want %d", name, len(blocks), f.blocks)
		}
		want, err := store.ReadLines(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 7} {
			for _, s := range []Scheduler{Serial{}, &pooled{width: 3}} {
				parts, err := ReadTextParts(s, store, dfs.Scheme+name, n)
				if err != nil {
					t.Fatalf("%s, n=%d: %v", name, n, err)
				}
				var got []string
				for _, part := range parts {
					for _, q := range part {
						got = append(got, q.(string))
					}
				}
				if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, n=%d: splits read %q, want %q", name, n, got, want)
				}
				if len(parts) < 1 || len(blocks) == 1 && size >= int64(n*n) && len(parts) < n {
					t.Fatalf("%s (%d bytes), n=%d: %d splits", name, size, n, len(parts))
				}
			}
		}
	}
}

// TestReadTextPartsErrors: a missing file, a missing store and a missing
// local file are errors, not empty reads.
func TestReadTextPartsErrors(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		store *dfs.Store
		path  string
	}{{store, "dfs://absent.txt"}, {nil, "dfs://x.txt"}, {store, t.TempDir() + "/absent.txt"}} {
		if _, err := ReadTextParts(Serial{}, c.store, c.path, 4); err == nil {
			t.Errorf("%s: read without error", c.path)
		}
	}
}

// TestTextSplitShortReplica: when the line a split finishes runs into a
// block whose first replica is short, the split reads the whole one, and the
// splits still concatenate to dfs.ReadLines; with no whole replica of that
// block the read fails naming it.
func TestTextSplitShortReplica(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: textBlock, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Block 0's last line runs through block 1 into block 2.
	if err := store.WriteLines("short", append([]string{"h", strings.Repeat("S", 2*textBlock)}, strings.Split(strings.Repeat("t ", 40), " ")...)); err != nil {
		t.Fatal(err)
	}
	want, err := store.ReadLines("short")
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, _ := store.Stat("short")
	truncate := func(node int) {
		t.Helper()
		path := filepath.Join(store.Root(), fmt.Sprintf("node%d", node), "short", fmt.Sprintf("blk_%06d", 2))
		if err := os.Truncate(path, blocks[2].Size/2); err != nil {
			t.Fatal(err)
		}
	}
	truncate(blocks[2].Nodes[0])
	for _, n := range []int{1, 2, 4, 7} {
		parts, err := ReadTextParts(&pooled{width: 3}, store, dfs.Scheme+"short", n)
		if err != nil {
			t.Fatalf("n=%d, one short replica of block 2: %v", n, err)
		}
		var got []string
		for _, part := range parts {
			for _, q := range part {
				got = append(got, q.(string))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d, one short replica of block 2: read %q, want %q", n, got, want)
		}
	}
	truncate(blocks[2].Nodes[1])
	for _, n := range []int{1, 4} {
		if _, err := ReadTextParts(Serial{}, store, dfs.Scheme+"short", n); err == nil || !strings.Contains(err.Error(), `"short" block 2`) {
			t.Fatalf("n=%d, no whole replica of block 2: error %v, want one naming the block", n, err)
		}
	}
}
