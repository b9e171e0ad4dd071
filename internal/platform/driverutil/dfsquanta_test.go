package driverutil

import (
	"errors"
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

func quantaStore(t *testing.T) *dfs.Store {
	t.Helper()
	s, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 256, Replication: 1, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleQuanta(n int) []any {
	out := make([]any, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = core.KV{Key: "w", Value: int64(i)}
		case 1:
			out[i] = core.Record{int64(i), "text", 1.5}
		case 2:
			out[i] = "plain string with some padding to cross blocks"
		default:
			out[i] = int64(i)
		}
	}
	return out
}

func TestDFSQuantaRoundTrip(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(50) // well past one 256-byte block
	if err := WriteDFSQuanta(s, "data", in); err != nil {
		t.Fatal(err)
	}
	if !s.IsFramed("data") {
		t.Error("quanta file not written framed")
	}
	out, err := ReadDFSQuanta(s, "data")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip: got %d quanta, want %d", len(out), len(in))
	}
}

// TestDFSQuantaBlockReadsCoverFile: the spark driver reads quanta files one
// block per worker; the concatenation must equal the whole file.
func TestDFSQuantaBlockReadsCoverFile(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(60)
	if err := WriteDFSQuanta(s, "parts", in); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := s.Stat("parts")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("only %d blocks; multi-block path not exercised", len(blocks))
	}
	var got []any
	for i := range blocks {
		rows, err := ReadDFSQuantaBlock(s, "parts", i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		got = append(got, rows...)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("block reads: got %d quanta, want %d", len(got), len(in))
	}
}

// TestDFSQuantaLegacyJSONLines: a DFS file of tagged JSON lines (the format
// before the binary codec) is not a quanta file. The whole-file readers and
// the per-block reader reject it as corrupt instead of parsing it as JSON.
func TestDFSQuantaLegacyJSONLines(t *testing.T) {
	s := quantaStore(t)
	in := sampleQuanta(40)
	lines := make([]string, len(in))
	for i, q := range in {
		raw, err := core.EncodeQuantum(q)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(raw)
	}
	if err := s.WriteLines("legacy", lines); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDFSQuanta(s, "legacy"); !errors.Is(err, core.ErrCorruptQuantum) {
		t.Errorf("ReadDFSQuanta: %v, want ErrCorruptQuantum", err)
	}
	if _, err := ReadDFSQuantaSegments(s, "legacy"); !errors.Is(err, core.ErrCorruptQuantum) {
		t.Errorf("ReadDFSQuantaSegments: %v, want ErrCorruptQuantum", err)
	}
	_, blocks, err := s.Stat("legacy")
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if _, err := ReadDFSQuantaBlock(s, "legacy", i); !errors.Is(err, core.ErrCorruptQuantum) {
			t.Errorf("block %d: %v, want ErrCorruptQuantum", i, err)
		}
	}
}

// TestDFSQuantaBlockRejectsNestedBatch: the block reader expands a frame that
// is a whole column batch to its rows, but a batch nested inside a quantum is
// corrupt, never handed on as a *core.ColumnBatch value.
func TestDFSQuantaBlockRejectsNestedBatch(t *testing.T) {
	s := quantaStore(t)
	b, ok := core.BatchFromRows([]any{core.Record{int64(1)}, core.Record{int64(2)}})
	if !ok {
		t.Fatal("BatchFromRows refused uniform records")
	}
	batch, err := core.AppendColumnBatchBinary(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"whole":  batch,
		"nested": append([]byte{0x07, 1}, batch...), // a one-element record
	} {
		fw, err := s.CreateFrames(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteRaw([]byte(core.BinaryQuantaMagic)); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		rows, err := ReadDFSQuantaBlock(s, name, 0)
		switch name {
		case "whole":
			if err != nil || !reflect.DeepEqual(rows, []any{core.Record{int64(1)}, core.Record{int64(2)}}) {
				t.Errorf("whole batch frame: %v (err %v), want its two rows", rows, err)
			}
		case "nested":
			if !errors.Is(err, core.ErrCorruptQuantum) {
				t.Errorf("nested batch: %v (err %v), want ErrCorruptQuantum", rows, err)
			}
		}
	}
}

func TestDFSQuantaWriteErrorLeavesNoFile(t *testing.T) {
	s := quantaStore(t)
	if err := WriteDFSQuanta(s, "bad", []any{"ok", make(chan int)}); err == nil {
		t.Fatal("encoding a channel succeeded")
	}
	if s.Exists("bad") {
		t.Error("failed write left a file in the namespace")
	}
}
