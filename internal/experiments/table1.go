package experiments

import (
	"fmt"
	"strings"

	"rheem"
	"rheem/internal/datagen"
	"rheem/internal/tasks"
)

// Table1 reproduces Table 1: the task inventory with per-task RHEEM
// operator counts and the (synthetic stand-in) datasets.
func Table1(opts Options) (string, error) {
	opts = opts.withDefaults()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		return "", err
	}
	defer ctx.Close()
	if err := ctx.DFS.WriteLines("t1-wc.txt", datagen.Words(100, 9, 1000, opts.Seed)); err != nil {
		return "", err
	}
	if err := ctx.DFS.WriteLines("t1-sgd.csv", datagen.PointLines(datagen.Points(100, 10, opts.Seed))); err != nil {
		return "", err
	}
	a, b := datagen.CommunityGraphs(100, 50, 3, opts.Seed)
	ctx.DFS.WriteLines("t1-ca.tsv", datagen.EdgeLines(a))
	ctx.DFS.WriteLines("t1-cb.tsv", datagen.EdgeLines(b))

	wcB, _ := tasks.WordCount(ctx, "dfs://t1-wc.txt")
	sgdB, final, err := tasks.SGD(ctx, "dfs://t1-sgd.csv", tasks.SGDOptions{Iterations: 10, BatchSize: 10, Dim: 10})
	if err != nil {
		return "", err
	}
	final.CollectSink()
	prB, ranks := tasks.CrocoPR(ctx, "dfs://t1-ca.tsv", "dfs://t1-cb.tsv", 10)
	ranks.CollectSink()

	var sb strings.Builder
	sb.WriteString("Table 1: Tasks and datasets\n")
	sb.WriteString(fmt.Sprintf("%-10s %-34s %-10s %s\n", "Task", "Description", "Operators", "Dataset (synthetic stand-in)"))
	sb.WriteString(fmt.Sprintf("%-10s %-34s %-10d %s\n", "WordCount", "count distinct words",
		tasks.OperatorCount(wcB.Plan()), "Zipf abstracts corpus (for: Wikipedia abstracts)"))
	sb.WriteString(fmt.Sprintf("%-10s %-34s %-10d %s\n", "SGD", "stochastic gradient descent",
		tasks.OperatorCount(sgdB.Plan()), "dense labelled points (for: HIGGS)"))
	sb.WriteString(fmt.Sprintf("%-10s %-34s %-10d %s\n", "CrocoPR", "cross-community pagerank",
		tasks.OperatorCount(prB.Plan()), "preferential-attachment links (for: DBpedia pagelinks)"))
	return sb.String(), nil
}
