package rheem_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, regenerating the corresponding experiment and
// reporting the headline comparison as custom metrics (ms per system). Run
//
//	go test -bench=. -benchmem
//
// RHEEM_BENCH_SCALE (default 0.25) shrinks or grows the inputs; 1.0 is the
// laptop-scale default the EXPERIMENTS.md numbers were recorded at.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/experiments"
	"rheem/internal/rescache"
)

func benchScale() float64 {
	if s := os.Getenv("RHEEM_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

func benchOpts() experiments.Options {
	return experiments.Options{Scale: benchScale()}
}

// reportRows exposes each system's measured time as a benchmark metric.
func reportRows(b *testing.B, rows []experiments.Row) {
	b.Helper()
	type agg struct {
		ms float64
		n  int
	}
	sums := map[string]*agg{}
	for _, r := range rows {
		if r.Ms < 0 {
			continue
		}
		a := sums[r.System]
		if a == nil {
			a = &agg{}
			sums[r.System] = a
		}
		a.ms += r.Ms
		a.n++
	}
	for system, a := range sums {
		b.ReportMetric(a.ms/float64(a.n), metricName(system))
	}
}

// metricName sanitizes a system label into a ReportMetric-legal unit.
func metricName(system string) string {
	r := strings.NewReplacer(" ", "_", "(", "_", ")", "", "@", "_")
	return r.Replace(system) + "_ms"
}

func runExperiment(b *testing.B, fn func(experiments.Options) ([]experiments.Row, error)) {
	b.Helper()
	var last []experiments.Row
	for i := 0; i < b.N; i++ {
		rows, err := fn(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	reportRows(b, last)
}

// BenchmarkTable1 regenerates the task/dataset inventory.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2a: platform independence — BigDansing error detection.
func BenchmarkFig2a(b *testing.B) { runExperiment(b, experiments.Fig2a) }

// BenchmarkFig2b: opportunistic cross-platform — SGD vs MLlib/SystemML.
func BenchmarkFig2b(b *testing.B) { runExperiment(b, experiments.Fig2b) }

// BenchmarkFig2c: mandatory cross-platform — PageRank out of the store.
func BenchmarkFig2c(b *testing.B) { runExperiment(b, experiments.Fig2c) }

// BenchmarkFig2d: polystore — TPC-H Q5 in place vs consolidate-first.
func BenchmarkFig2d(b *testing.B) { runExperiment(b, experiments.Fig2d) }

// BenchmarkFig9a: platform-independence sweep, WordCount.
func BenchmarkFig9a(b *testing.B) { runExperiment(b, experiments.Fig9a) }

// BenchmarkFig9b: platform-independence sweep, SGD.
func BenchmarkFig9b(b *testing.B) { runExperiment(b, experiments.Fig9b) }

// BenchmarkFig9c: platform-independence sweep, CrocoPR.
func BenchmarkFig9c(b *testing.B) { runExperiment(b, experiments.Fig9c) }

// BenchmarkFig9d: opportunistic sweep, WordCount result fraction.
func BenchmarkFig9d(b *testing.B) { runExperiment(b, experiments.Fig9d) }

// BenchmarkFig9e: opportunistic sweep, SGD batch size.
func BenchmarkFig9e(b *testing.B) { runExperiment(b, experiments.Fig9e) }

// BenchmarkFig9f: opportunistic sweep, CrocoPR iterations.
func BenchmarkFig9f(b *testing.B) { runExperiment(b, experiments.Fig9f) }

// BenchmarkFig10a: the hidden-opportunity Join subquery.
func BenchmarkFig10a(b *testing.B) { runExperiment(b, experiments.Fig10a) }

// BenchmarkFig10b: progressive optimization on/off.
func BenchmarkFig10b(b *testing.B) { runExperiment(b, experiments.Fig10b) }

// BenchmarkFig10c: exploratory mode on/off.
func BenchmarkFig10c(b *testing.B) { runExperiment(b, experiments.Fig10c) }

// BenchmarkFig11: RHEEM vs Musketeer on CrocoPR.
func BenchmarkFig11(b *testing.B) { runExperiment(b, experiments.Fig11) }

// Benchmark_AblationPruning: lossless pruning vs exhaustive enumeration.
func Benchmark_AblationPruning(b *testing.B) { runExperiment(b, experiments.AblationPruning) }

// Benchmark_AblationMovement: conversion tree vs naive per-path movement.
func Benchmark_AblationMovement(b *testing.B) { runExperiment(b, experiments.AblationMovement) }

// Benchmark_AblationLearnedCosts: learned vs default cost model choices.
func Benchmark_AblationLearnedCosts(b *testing.B) { runExperiment(b, experiments.AblationLearnedCosts) }

// Package-level UDFs so rebuilt plans fingerprint identically (the result
// cache keys on UDF symbol identity).
func benchSplit(q any) []any {
	fields := strings.Fields(q.(string))
	out := make([]any, len(fields))
	for i, w := range fields {
		out[i] = core.KV{Key: w, Value: int64(1)}
	}
	return out
}

func benchWordOf(q any) any { return q.(core.KV).Key }

func benchSumCounts(a, b any) any {
	ka, kb := a.(core.KV), b.(core.KV)
	return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
}

// benchWordCountPlan builds a fresh WordCount plan, the way each incoming
// server job would: new operator instances, identical fingerprints.
func benchWordCountPlan(ctx *rheem.Context) *core.Plan {
	b := ctx.NewPlan("bench-wc")
	b.ReadTextFile("dfs://bench-words.txt").
		FlatMap("split", benchSplit).
		ReduceBy("count", benchWordOf, benchSumCounts).
		CollectSink()
	return b.Plan()
}

func benchCacheCtx(b *testing.B, cache *rescache.Cache) *rheem.Context {
	b.Helper()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true, ResultCache: cache})
	if err != nil {
		b.Fatal(err)
	}
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta word%d", i%37)
	}
	if err := ctx.DFS.WriteLines("bench-words.txt", lines); err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkWordCountCacheHit anchors the result cache's win: the same
// WordCount job submitted repeatedly. The first (untimed) run populates the
// cache; every timed run must substitute a cache scan for the text-file
// scan, flatmap, and reduce stages.
func BenchmarkWordCountCacheHit(b *testing.B) {
	cache := rescache.New(rescache.Options{MaxBytes: 64 << 20})
	ctx := benchCacheCtx(b, cache)
	if _, err := ctx.Execute(benchWordCountPlan(ctx)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Execute(benchWordCountPlan(ctx)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(false); st.Hits < int64(b.N) {
		b.Fatalf("cache hits = %d over %d runs: warm runs re-executed the pipeline", st.Hits, b.N)
	}
}

// BenchmarkWordCountCacheMiss is the control: caching disabled, every run
// re-reads and re-aggregates. Compare against BenchmarkWordCountCacheHit.
func BenchmarkWordCountCacheMiss(b *testing.B) {
	ctx := benchCacheCtx(b, nil)
	if _, err := ctx.Execute(benchWordCountPlan(ctx)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Execute(benchWordCountPlan(ctx)); err != nil {
			b.Fatal(err)
		}
	}
}
