// The quickstart example: WordCount through the fluent DataQuanta API. The
// optimizer picks the platform (the single-node engine for this input size;
// grow the corpus and it switches to a parallel engine), and Collect brings
// the counts back to the driver.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"rheem"
	"rheem/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the example; main exits only after it returns, so the context
// (and its temporary DFS directory) is closed on every path.
func run() error {
	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		return err
	}
	defer ctx.Close()

	// Put a small corpus on the DFS.
	corpus := []string{
		"solving business problems increasingly requires going beyond a single platform",
		"a cross platform system decides where to execute each task",
		"the optimizer finds the most efficient platform in almost all cases",
		"may the big data be with you",
	}
	if err := ctx.DFS.WriteLines("quickstart.txt", corpus); err != nil {
		return err
	}

	counts, err := ctx.NewPlan("wordcount").
		ReadTextFile("dfs://quickstart.txt").
		FlatMap("split", func(q any) []any {
			fields := strings.Fields(q.(string))
			out := make([]any, len(fields))
			for i, w := range fields {
				out[i] = core.KV{Key: w, Value: int64(1)}
			}
			return out
		}).
		ReduceBy("count",
			func(q any) any { return q.(core.KV).Key },
			func(a, b any) any {
				ka, kb := a.(core.KV), b.(core.KV)
				return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
			}).
		Collect()
	if err != nil {
		return err
	}

	type wc struct {
		word string
		n    int64
	}
	var out []wc
	for _, q := range counts {
		kv := q.(core.KV)
		out = append(out, wc{kv.Key.(string), kv.Value.(int64)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].word < out[j].word
	})
	fmt.Println("top words:")
	for i, w := range out {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-12s %d\n", w.word, w.n)
	}
	return nil
}
