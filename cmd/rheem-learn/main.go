// Command rheem-learn is the offline cost-model learner (Section 4.5 of the
// paper): it generates execution logs over the three task topologies
// (pipeline, iterative, merge) on every general-purpose platform, fits the
// cost model parameters with the genetic algorithm, and writes the learned
// cost table for later runs (rheem --costs table.json).
//
// Usage:
//
//	rheem-learn -out costs.json                 # generate logs + learn
//	rheem-learn -logs logs.jsonl -out costs.json  # learn from existing logs
//	rheem-learn -gen-only -logs logs.jsonl        # only generate logs
package main

import (
	"flag"
	"fmt"
	"os"

	"rheem"
	"rheem/internal/costlearn"
	"rheem/internal/optimizer"
)

func main() {
	out := flag.String("out", "costs.json", "output path for the learned cost table")
	logPath := flag.String("logs", "", "JSONL stage-log file (read if it exists, else written)")
	genOnly := flag.Bool("gen-only", false, "only generate and store logs; skip learning")
	sizes := flag.String("sizes", "1000,10000,50000", "comma-separated input sizes for log generation")
	pop := flag.Int("population", 80, "genetic algorithm population size")
	gens := flag.Int("generations", 200, "genetic algorithm generations")
	seed := flag.Int64("seed", 1, "genetic algorithm seed")
	flag.Parse()

	ctx, err := rheem.NewContext(rheem.Config{})
	if err != nil {
		fatal(err)
	}

	var logs []costlearn.StageLog
	if *logPath != "" {
		if existing, err := costlearn.LoadLogs(*logPath); err == nil && len(existing) > 0 {
			logs = existing
			fmt.Printf("loaded %d stage logs from %s\n", len(logs), *logPath)
		}
	}
	if len(logs) == 0 {
		fmt.Println("generating execution logs (pipeline, iterative, merge topologies)...")
		logs, err = costlearn.GenerateLogs(ctx.Registry, costlearn.GenOptions{Sizes: parseSizes(*sizes)})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("generated %d stage logs\n", len(logs))
		if *logPath != "" {
			if err := costlearn.AppendLogs(*logPath, logs); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote logs to %s\n", *logPath)
		}
	}
	if *genOnly {
		return
	}

	base := optimizer.DefaultCostTable(ctx.Registry)
	fmt.Printf("fitting %d-gene model (population %d, %d generations)...\n", countKeys(logs)*2, *pop, *gens)
	learned, loss, err := costlearn.Learn(logs, base, costlearn.Options{
		Population: *pop, Generations: *gens, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	if err := learned.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("training loss %.4f; learned cost table written to %s\n", loss, *out)
}

func parseSizes(s string) []int {
	var out []int
	n := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if n > 0 {
				out = append(out, n)
			}
			n = 0
			continue
		}
		if s[i] >= '0' && s[i] <= '9' {
			n = n*10 + int(s[i]-'0')
		}
	}
	return out
}

func countKeys(logs []costlearn.StageLog) int {
	keys := map[string]bool{}
	for _, l := range logs {
		for _, op := range l.Ops {
			keys[op.CostKey] = true
		}
	}
	return len(keys)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rheem-learn:", err)
	os.Exit(1)
}
