package dfs

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sampleByReading is the sample LineSample must equal: what
// ReadBlockLines(name, 0) returns, summed the way the cardinality
// estimator sums it.
func sampleByReading(t *testing.T, s *Store, name string) Sample {
	t.Helper()
	size, blocks, err := s.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := s.ReadBlockLines(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := Sample{Size: size, Blocks: len(blocks), Lines: int64(len(lines))}
	for _, l := range lines {
		want.Bytes += int64(len(l)) + 1
	}
	return want
}

// writeRaw writes content as a DFS file byte for byte, so a file can end
// without a newline.
func writeRaw(t *testing.T, s *Store, name, content string) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLineSampleOncePerVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Options{BlockSize: 64, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	var many []string
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf("row-%02d-%s", i, strings.Repeat("x", i%9)))
	}
	files := map[string]string{
		"one-block": "a\nbb\nccc\n",
		"multi":     strings.Join(many, "\n") + "\n",
		// Block 0 ends inside a line that runs on into block 2, and the
		// file's last line has no newline.
		"fragment": "head\n" + strings.Repeat("L", 150) + "\ntail-without-newline",
		"empty":    "",
	}
	for name, content := range files {
		writeRaw(t, s, name, content)
	}
	check := func(s *Store, name string) {
		t.Helper()
		want := sampleByReading(t, s, name)
		got, err := s.LineSample(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: sample %+v, reading block 0 gives %+v", name, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { s.LineSample(name) }); allocs != 0 {
			t.Fatalf("%s: a memoized sample costs %v allocations, want 0", name, allocs)
		}
	}
	for name := range files {
		check(s, name)
	}
	if smp, _ := s.LineSample("fragment"); smp.Blocks < 3 || smp.Lines != 2 {
		t.Fatalf("fragment sample %+v: want 2 lines over >= 3 blocks", smp)
	}

	// A rewrite is a new version: sampled afresh, never served the old one.
	writeRaw(t, s, "multi", "x\ny\n")
	check(s, "multi")
	if smp, _ := s.LineSample("multi"); smp.Lines != 2 || smp.Blocks != 1 {
		t.Fatalf("rewritten sample %+v", smp)
	}
	if err := s.Delete("multi"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LineSample("multi"); err == nil {
		t.Fatal("sample of a deleted file succeeded")
	}
	writeRaw(t, s, "multi", strings.Join(many, "\n"))
	check(s, "multi")

	// A reopened store samples from disk; nothing of the memo is persisted.
	s2, err := New(dir, Options{BlockSize: 64, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name := range files {
		check(s2, name)
	}
}

// TestLineSampleRacesRewrites runs samplers against a rewriter (meant for
// -race). Whatever a sampler read mid-rewrite, the sample of the version in
// place after each write must be that version's.
func TestLineSampleRacesRewrites(t *testing.T) {
	s := newTestStore(t, 64)
	versions := []string{
		strings.Repeat("short\n", 30),
		strings.Repeat("a-much-longer-line-of-text\n", 11),
		"one line, no newline",
	}
	writeRaw(t, s, "f", versions[0])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.LineSample("f") // errors and torn reads are allowed mid-rewrite
				}
			}
		}()
	}
	for i := 0; i < 60; i++ {
		writeRaw(t, s, "f", versions[i%len(versions)])
		want := sampleByReading(t, s, "f")
		for k := 0; k < 3; k++ {
			got, err := s.LineSample("f")
			if err != nil || got != want {
				close(stop)
				wg.Wait()
				t.Fatalf("write %d: sample %+v (%v), want %+v", i, got, err, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// readAllSplits concatenates every block split of a line file.
func readAllSplits(s *Store, name string) ([]string, error) {
	_, blocks, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	var all []string
	for _, b := range blocks {
		part, err := s.ReadBlockLines(name, b.Index)
		if err != nil {
			return nil, err
		}
		all = append(all, part...)
	}
	return all, nil
}

// TestStraddlingLinesAndShortReplicas: splits reassemble a file whose lines
// cross block boundaries (some longer than the straddle reader's chunk) and
// whose last line has no newline; a truncated replica is skipped for the
// whole one, and with no whole replica left the read fails naming the file
// and block instead of returning fewer lines.
func TestStraddlingLinesAndShortReplicas(t *testing.T) {
	for _, bs := range []int64{64, 3 * lineChunk} {
		t.Run(fmt.Sprintf("block=%d", bs), func(t *testing.T) {
			s, err := New(t.TempDir(), Options{BlockSize: bs, Replication: 2, Nodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for i := 0; i < 30; i++ {
				lines = append(lines, fmt.Sprintf("%02d:%s", i, strings.Repeat("z", (i*37)%(int(bs)+2*lineChunk))))
			}
			writeRaw(t, s, "f", strings.Join(lines, "\n"))
			_, blocks, _ := s.Stat("f")
			if len(blocks) < 4 {
				t.Fatalf("%d blocks; want several", len(blocks))
			}
			if got, err := readAllSplits(s, "f"); err != nil || !reflect.DeepEqual(got, lines) {
				t.Fatalf("splits: %d lines (%v), want %d", len(got), err, len(lines))
			}

			victim := blocks[2]
			truncate := func(node int) {
				t.Helper()
				if err := os.Truncate(s.blockPath("f", node, victim.Index), victim.Size/2); err != nil {
					t.Fatal(err)
				}
			}
			truncate(victim.Nodes[0])
			if got, err := readAllSplits(s, "f"); err != nil || !reflect.DeepEqual(got, lines) {
				t.Fatalf("one short replica: %d lines (%v), want %d", len(got), err, len(lines))
			}
			if got, err := s.ReadLines("f"); err != nil || !reflect.DeepEqual(got, lines) {
				t.Fatalf("one short replica, whole-file read: %d lines (%v)", len(got), err)
			}

			healthy := make([][]string, len(blocks))
			for i := range blocks {
				healthy[i], _ = s.ReadBlockLines("f", i)
			}
			truncate(victim.Nodes[1])
			// Every split either reads what it read before or fails naming
			// the block; split 2 itself must fail.
			for i := range blocks {
				part, err := s.ReadBlockLines("f", i)
				if err != nil && !strings.Contains(err.Error(), `"f" block 2`) {
					t.Fatalf("split %d: error %v does not name the file and block 2", i, err)
				}
				if err == nil && (i == 2 || !reflect.DeepEqual(part, healthy[i])) {
					t.Fatalf("split %d with no whole replica of block 2: %d lines, no error", i, len(part))
				}
			}
		})
	}
}
