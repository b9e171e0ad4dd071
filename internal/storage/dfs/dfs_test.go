package dfs

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func newTestStore(t *testing.T, blockSize int64) *Store {
	t.Helper()
	s, err := New(t.TempDir(), Options{BlockSize: blockSize, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPathScheme(t *testing.T) {
	if !IsPath("dfs://data/x.txt") || IsPath("/tmp/x.txt") {
		t.Fatal("IsPath misclassifies")
	}
	if TrimScheme("dfs://data/x.txt") != "data/x.txt" {
		t.Fatal("TrimScheme failed")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newTestStore(t, 64)
	lines := []string{"alpha", "beta", strings.Repeat("x", 200), "delta"}
	if err := s.WriteLines("f1", lines); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadLines("f1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, lines) {
		t.Fatalf("got %v", got)
	}
	size, blocks, err := s.Stat("f1")
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 || len(blocks) < 3 {
		t.Fatalf("size=%d blocks=%d; expected multiple 64B blocks", size, len(blocks))
	}
	for _, b := range blocks {
		if len(b.Nodes) != 2 {
			t.Errorf("block %d has %d replicas, want 2", b.Index, len(b.Nodes))
		}
	}
}

func TestBlockLinesPartitionExactly(t *testing.T) {
	s := newTestStore(t, 50)
	var lines []string
	for i := 0; i < 100; i++ {
		lines = append(lines, fmt.Sprintf("line-%03d-%s", i, strings.Repeat("ab", i%7)))
	}
	if err := s.WriteLines("f", lines); err != nil {
		t.Fatal(err)
	}
	_, blocks, _ := s.Stat("f")
	if len(blocks) < 5 {
		t.Fatalf("expected many blocks, got %d", len(blocks))
	}
	var all []string
	for _, b := range blocks {
		part, err := s.ReadBlockLines("f", b.Index)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, part...)
	}
	if !reflect.DeepEqual(all, lines) {
		t.Fatalf("block partition lost or duplicated lines: got %d lines, want %d\nfirst got: %v",
			len(all), len(lines), all[:min(5, len(all))])
	}
}

func TestBlockLinesPartitionProperty(t *testing.T) {
	f := func(seed uint8, bs uint8) bool {
		s, err := New(t.TempDir(), Options{BlockSize: int64(bs%60) + 20, Replication: 1, Nodes: 2})
		if err != nil {
			return false
		}
		var lines []string
		n := int(seed)%40 + 1
		for i := 0; i < n; i++ {
			lines = append(lines, fmt.Sprintf("%d:%s", i, strings.Repeat("z", (i*int(seed))%30)))
		}
		if err := s.WriteLines("p", lines); err != nil {
			return false
		}
		_, blocks, _ := s.Stat("p")
		var all []string
		for _, b := range blocks {
			part, err := s.ReadBlockLines("p", b.Index)
			if err != nil {
				return false
			}
			all = append(all, part...)
		}
		return reflect.DeepEqual(all, lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLineStraddlingManyBlocks(t *testing.T) {
	s := newTestStore(t, 32)
	// One line much longer than a block, surrounded by short lines.
	lines := []string{"short", strings.Repeat("L", 200), "tail"}
	if err := s.WriteLines("straddle", lines); err != nil {
		t.Fatal(err)
	}
	_, blocks, _ := s.Stat("straddle")
	var all []string
	for _, b := range blocks {
		part, err := s.ReadBlockLines("straddle", b.Index)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, part...)
	}
	if !reflect.DeepEqual(all, lines) {
		t.Fatalf("straddling line mishandled: %q", all)
	}
}

func TestOverwriteReplacesContent(t *testing.T) {
	s := newTestStore(t, 64)
	s.WriteLines("f", []string{"old1", "old2"})
	s.WriteLines("f", []string{"new"})
	got, err := s.ReadLines("f")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"new"}) {
		t.Fatalf("got %v", got)
	}
}

func TestDeleteAndExists(t *testing.T) {
	s := newTestStore(t, 64)
	s.WriteLines("f", []string{"x"})
	if !s.Exists("f") {
		t.Fatal("file should exist")
	}
	if err := s.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("f") {
		t.Fatal("file should be gone")
	}
	if err := s.Delete("f"); err == nil {
		t.Fatal("double delete should error")
	}
	if _, err := s.Open("f"); err == nil {
		t.Fatal("open of deleted file should error")
	}
}

func TestListSorted(t *testing.T) {
	s := newTestStore(t, 64)
	for _, n := range []string{"b", "a", "c"} {
		s.WriteLines(n, []string{n})
	}
	if got := s.List(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("List = %v", got)
	}
}

func TestReopenStoreLoadsMetadata(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(dir, Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	s1.WriteLines("persisted", []string{"survives", "restarts"})

	s2, err := New(dir, Options{BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadLines("persisted")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"survives", "restarts"}) {
		t.Fatalf("got %v", got)
	}
}

func TestReplicaFailover(t *testing.T) {
	s := newTestStore(t, 1024)
	s.WriteLines("f", []string{"important"})
	_, blocks, _ := s.Stat("f")
	// Destroy the first replica of block 0; reads must fail over.
	path := s.blockPath("f", blocks[0].Nodes[0], 0)
	if err := removeFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadLines("f")
	if err != nil {
		t.Fatalf("read after replica loss: %v", err)
	}
	if !reflect.DeepEqual(got, []string{"important"}) {
		t.Fatalf("got %v", got)
	}
}

func TestOpenBlockErrors(t *testing.T) {
	s := newTestStore(t, 64)
	s.WriteLines("f", []string{"x"})
	if _, err := s.OpenBlock("f", 99); err == nil {
		t.Fatal("expected out-of-range block error")
	}
	if _, err := s.OpenBlock("missing", 0); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestEmptyFile(t *testing.T) {
	s := newTestStore(t, 64)
	if err := s.WriteLines("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadLines("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	// Even an empty file has (one, empty) block so stat works.
	if _, blocks, err := s.Stat("empty"); err != nil || len(blocks) == 0 {
		t.Fatalf("stat empty: %v, %v", blocks, err)
	}
}

func TestCreateEmptyNameFails(t *testing.T) {
	s := newTestStore(t, 64)
	if _, err := s.Create(""); err == nil {
		t.Fatal("expected error for empty name")
	}
}

func TestRawStreamRoundTrip(t *testing.T) {
	s := newTestStore(t, 128)
	w, err := s.Create("bin")
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("0123456789", 100)
	if _, err := io.WriteString(w, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("raw round trip corrupted: %d bytes", len(got))
	}
}

func removeFile(p string) error { return os.Remove(p) }
