package rheem

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

// TestTextSourceAllocationBound: counting a DFS line file on spark, flink and
// streams allocates its line strings and their boxes, the partition slices
// the lines are boxed into (a sixteenth over, as a split's partition is sized
// from its first lines), one split buffer per worker and a constant per split
// and per stage — never a block's bytes: a whole-block read would add the
// file's size. A 64-block file is read in a split per block; a one-block file
// of 1 MiB is read in a split per worker, and streams, reading one split,
// streams it where it lies.
func TestTextSourceAllocationBound(t *testing.T) {
	const (
		lineLen  = 32 // a line's string is one 32-byte size class
		width    = 2
		perSplit = 4 << 10   // the replicas opened and the first lines' slice
		perStage = 128 << 10 // the stage harness, its maps and an engine's flow
	)
	for _, f := range []struct {
		name   string
		block  int
		blocks int
		// streamCopies is how many partition slices streams boxes a line
		// into: its split's, and with more than one split also the stream's
		// one partition.
		streamCopies int
	}{
		{"64-blocks", 16 << 10, 64, 2},
		{"one-block", 1 << 20, 1, 1},
	} {
		t.Run(f.name, func(t *testing.T) {
			store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: int64(f.block)})
			if err != nil {
				t.Fatal(err)
			}
			n := f.blocks * f.block / (lineLen + 1)
			lines := make([]string, n)
			for i := range lines {
				lines[i] = fmt.Sprintf("%0*d", lineLen, i)
			}
			if err := store.WriteLines("lines.txt", lines); err != nil {
				t.Fatal(err)
			}
			size, blocks, err := store.Stat("lines.txt")
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) != f.blocks {
				t.Fatalf("%d blocks, want %d", len(blocks), f.blocks)
			}
			for _, c := range []struct {
				driver core.Driver
				// copies is how many partition slices a line is boxed into.
				copies, workers int
			}{
				{spark.NewWithConfig(store, spark.Config{Parallelism: width}), 1, width},
				{flink.NewWithConfig(store, flink.Config{Parallelism: width}), 1, width},
				{streams.New(store), f.streamCopies, 1},
			} {
				t.Run(c.driver.Name(), func(t *testing.T) {
					p := core.NewPlan("count-lines")
					src := p.NewOperator(core.KindTextFileSource, "lines")
					src.Params.Path = dfs.Scheme + "lines.txt"
					count := p.NewOperator(core.KindCount, "count")
					p.Connect(src, count, 0)
					stage := &core.Stage{ID: 1, Platform: c.driver.Name(), Ops: []*core.Operator{src, count}, TerminalOuts: []*core.Operator{count}}
					run := func() {
						outs, _, err := c.driver.Execute(stage, core.NewInputs())
						if err != nil {
							t.Fatal(err)
						}
						got, err := driverutil.ChannelQuanta(outs[count])
						if err != nil || len(got) != 1 || got[0] != int64(n) {
							t.Fatalf("counted %v (%v), want %d", got, err, n)
						}
					}
					run() // boots the engine
					// The least of three runs: what else the process allocates
					// meanwhile only adds to a run.
					got := uint64(math.MaxUint64)
					for range 3 {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						run()
						runtime.ReadMemStats(&after)
						got = min(got, after.TotalAlloc-before.TotalAlloc)
					}
					// A split per block, and at least one per worker: the
					// file is at least width² bytes.
					splits := max(len(blocks), c.workers)
					slices := c.copies*16*n + 16*n/16 + 16*8*splits
					buffers := c.workers * len(dfs.SplitBuffer(int64(f.block)))
					bound := uint64(n*(lineLen+16) + slices + buffers + perSplit*splits + perStage)
					t.Logf("%s: %d bytes for a %d-byte file of %d lines; bound %d", c.driver.Name(), got, size, n, bound)
					if got > bound {
						t.Fatalf("%s allocated %d bytes reading a %d-byte file, past %d (%d more)",
							c.driver.Name(), got, size, bound, got-bound)
					}
				})
			}
		})
	}
}
