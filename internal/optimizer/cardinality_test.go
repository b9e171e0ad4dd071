package optimizer

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// textSourcePlan is source(path) -> sink.
func textSourcePlan(path string) (*core.Plan, *core.Operator) {
	p := core.NewPlan("text")
	src := p.NewOperator(core.KindTextFileSource, "src")
	src.Params.Path = path
	p.Connect(src, p.NewOperator(core.KindCollectionSink, "out"), 0)
	return p, src
}

// TestEstimateCardsFlatInFileSize: once a DFS file has been sampled, estimating
// a plan over it costs the same whatever the file's size, and the one-block
// estimates are exact counts.
func TestEstimateCardsFlatInFileSize(t *testing.T) {
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resolve := DFSSourceResolver(store)
	allocs := map[int]float64{}
	for _, n := range []int{2000, 200000} {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("line-%07d", i)
		}
		name := fmt.Sprintf("in-%d.txt", n)
		if err := store.WriteLines(name, lines); err != nil {
			t.Fatal(err)
		}
		p, src := textSourcePlan("dfs://" + name)
		cards, err := EstimateCards(p, resolve, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := cards[src]; got != core.ExactCard(int64(n)) {
			t.Fatalf("%d lines estimated as %+v", n, got)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if _, err := EstimateCards(p, resolve, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[2000] != allocs[200000] {
		t.Fatalf("EstimateCards allocations grow with the file: %v for 2 k lines, %v for 200 k", allocs[2000], allocs[200000])
	}
}

// TestLocalFileResolverCounts: the streamed count equals the number of lines
// core.ReadTextFile reads, and an unreadable file is declined.
func TestLocalFileResolverCounts(t *testing.T) {
	dir := t.TempDir()
	resolve := LocalFileResolver()
	for name, content := range map[string]string{
		"empty":      "",
		"newline":    "\n",
		"trailing":   "a\nb\nc\n",
		"no-newline": "a\nb\nc",
		"crlf":       "a\r\nb\r\n\r\nc",
		"blank":      "\n\n\nx",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		lines, err := core.ReadTextFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, src := textSourcePlan(path)
		est, ok := resolve(src)
		if !ok || est != core.ExactCard(int64(len(lines))) {
			t.Errorf("%s: estimate %+v (answered %v), want exactly %d", name, est, ok, len(lines))
		}
	}
	for _, path := range []string{filepath.Join(dir, "absent"), dir} {
		_, src := textSourcePlan(path)
		if est, ok := resolve(src); ok {
			t.Errorf("%s: unreadable file answered %+v", path, est)
		}
	}
}
