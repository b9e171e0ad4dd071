package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func framedStore(t *testing.T, blockSize int64) *Store {
	t.Helper()
	s, err := New(t.TempDir(), Options{BlockSize: blockSize, Replication: 2, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func writeTestFrames(t *testing.T, s *Store, name string, header []byte, frames [][]byte) {
	t.Helper()
	fw, err := s.CreateFrames(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(header) > 0 {
		if err := fw.WriteRaw(header); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAllFrames concatenates the frames every block of a file owns, in
// block order: the whole file's frames, each once.
func readAllFrames(s *Store, name string) ([][]byte, error) {
	_, blocks, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for i := range blocks {
		part, err := s.ReadBlockFrames(name, i)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

func TestFramedRoundTripSingleBlock(t *testing.T) {
	s := framedStore(t, 4<<20)
	frames := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma")}
	writeTestFrames(t, s, "f1", []byte("HDR1"), frames)
	if !s.IsFramed("f1") {
		t.Fatal("IsFramed = false after framed write")
	}
	got, err := readAllFrames(s, "f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("read %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Errorf("frame %d = %q, want %q", i, got[i], frames[i])
		}
	}
}

// TestFramedBlockReadsCoverFileExactly: with a tiny block size, frames
// straddle block boundaries; per-block reads concatenated in block order
// must yield every frame exactly once.
func TestFramedBlockReadsCoverFileExactly(t *testing.T) {
	s := framedStore(t, 64)
	r := rand.New(rand.NewSource(9))
	var frames [][]byte
	for i := 0; i < 40; i++ {
		// Sizes from empty to 3× the block size, so some frames span
		// multiple whole blocks.
		f := make([]byte, r.Intn(200))
		r.Read(f)
		frames = append(frames, f)
	}
	writeTestFrames(t, s, "big", []byte("MAGC"), frames)

	_, blocks, err := s.Stat("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 4 {
		t.Fatalf("file has only %d blocks; block splitting not exercised", len(blocks))
	}
	got, err := readAllFrames(s, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("block reads yielded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch: %d vs %d bytes", i, len(got[i]), len(frames[i]))
		}
	}
}

func TestFramedInteriorBlockOwnsNothing(t *testing.T) {
	s := framedStore(t, 32)
	// One frame much larger than a block: every block after the first is
	// interior to it and must own zero frames.
	huge := bytes.Repeat([]byte("z"), 200)
	writeTestFrames(t, s, "huge", nil, [][]byte{huge, []byte("tail")})
	_, blocks, err := s.Stat("huge")
	if err != nil {
		t.Fatal(err)
	}
	owners := 0
	total := 0
	for i := range blocks {
		part, err := s.ReadBlockFrames("huge", i)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) > 0 {
			owners++
		}
		total += len(part)
	}
	if total != 2 {
		t.Fatalf("blocks yielded %d frames total, want 2", total)
	}
	if owners > 2 {
		t.Errorf("%d blocks own frames; interior blocks must own none", owners)
	}
}

func TestFramedErrors(t *testing.T) {
	s := framedStore(t, 1024)
	if _, err := s.ReadBlockFrames("absent", 0); err == nil {
		t.Error("ReadBlockFrames on a missing file succeeded")
	}
	// Line files are not framed.
	if err := s.WriteLines("lines", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if s.IsFramed("lines") {
		t.Error("line file reports framed")
	}
	if _, err := s.ReadBlockFrames("lines", 0); !errors.Is(err, ErrNotFramed) {
		t.Errorf("ReadBlockFrames on line file: %v, want ErrNotFramed", err)
	}
	writeTestFrames(t, s, "ok", nil, [][]byte{[]byte("x")})
	if _, err := s.ReadBlockFrames("ok", 99); err == nil {
		t.Error("out-of-range block index accepted")
	}
}

func TestFramedAbortLeavesNoFile(t *testing.T) {
	s := framedStore(t, 64)
	fw, err := s.CreateFrames("doomed")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := fw.WriteFrame(bytes.Repeat([]byte("q"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	fw.Abort()
	if s.Exists("doomed") {
		t.Error("aborted file exists in the namespace")
	}
	if _, err := s.Open("doomed"); err == nil {
		t.Error("aborted file is readable")
	}
}

func TestFramedOverwrite(t *testing.T) {
	s := framedStore(t, 64)
	writeTestFrames(t, s, "f", nil, [][]byte{bytes.Repeat([]byte("a"), 300)})
	writeTestFrames(t, s, "f", nil, [][]byte{[]byte("small")})
	got, err := readAllFrames(s, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "small" {
		t.Fatalf("overwritten file reads %q", got)
	}
}

func TestFramedManySmallFramesPerBlock(t *testing.T) {
	s := framedStore(t, 128)
	var frames [][]byte
	for i := 0; i < 100; i++ {
		frames = append(frames, []byte(fmt.Sprintf("frame-%03d", i)))
	}
	writeTestFrames(t, s, "many", nil, frames)
	_, blocks, err := s.Stat("many")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range blocks {
		part, err := s.ReadBlockFrames("many", i)
		if err != nil {
			t.Fatal(err)
		}
		total += len(part)
	}
	if total != 100 {
		t.Fatalf("block reads yielded %d frames, want 100", total)
	}
}
