package optimizer

import (
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

func benchRegistry(b *testing.B) *core.Registry {
	b.Helper()
	store, err := dfs.New(b.TempDir(), dfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg := core.NewRegistry()
	for _, d := range []core.Driver{
		streams.New(store),
		spark.NewWithConfig(store, spark.Config{Parallelism: 4, Latency: spark.Paper}),
		flink.NewWithConfig(store, flink.Config{Parallelism: 4, Latency: flink.Paper}),
		graphmem.New(),
	} {
		if err := reg.Register(d); err != nil {
			b.Fatal(err)
		}
	}
	return reg
}

func benchPlan(ops int) *core.Plan {
	p := core.NewPlan("bench")
	src := p.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{int64(1)}
	prev := src
	for i := 0; i < ops; i++ {
		m := p.NewOperator(core.KindMap, "m")
		m.UDF.Map = func(q any) any { return q }
		p.Connect(prev, m, 0)
		prev = m
	}
	sink := p.NewOperator(core.KindCollectionSink, "out")
	p.Connect(prev, sink, 0)
	return p
}

// BenchmarkOptimizePruned measures the lossless-pruning enumeration over
// growing plan sizes (the exhaustive alternative is k^n).
func BenchmarkOptimizePruned(b *testing.B) {
	reg := benchRegistry(b)
	for _, n := range []int{5, 15, 30} {
		b.Run("ops="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(benchPlan(n), Options{Registry: reg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizeCacheHitPlan measures optimizing what a result-cache hit
// leaves of a job: a cache-scan collection source feeding the sink. On the
// serving path this is every hit job's optimization, so its allocations are
// reported.
func BenchmarkOptimizeCacheHitPlan(b *testing.B) {
	reg := benchRegistry(b)
	rows := make([]any, 7)
	for i := range rows {
		rows[i] = core.Record{int64(i), float64(i), "g"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPlan("hit")
		scan := p.NewOperator(core.KindCollectionSource, "cache-scan:0123456789ab")
		scan.Params.Collection = rows
		p.Connect(scan, p.NewOperator(core.KindCollectionSink, "agg"), 0)
		if _, err := Optimize(p, Options{Registry: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDFSSource measures optimizing a plan over a 2 MB DFS text
// file, its cardinality resolved by sampling. The file is sampled once per
// version, so this is the steady-state cost every job over it pays; its
// allocations are reported.
func BenchmarkOptimizeDFSSource(b *testing.B) {
	store, err := dfs.New(b.TempDir(), dfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lines := make([]string, 200000)
	for i := range lines {
		lines[i] = "line-" + itoa(i)
	}
	if err := store.WriteLines("in.txt", lines); err != nil {
		b.Fatal(err)
	}
	reg := benchRegistry(b)
	opts := Options{Registry: reg, Resolve: DFSSourceResolver(store)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPlan("dfs")
		src := p.NewOperator(core.KindTextFileSource, "src")
		src.Params.Path = "dfs://in.txt"
		m := p.NewOperator(core.KindMap, "m")
		m.UDF.Map = func(q any) any { return q }
		p.Connect(src, m, 0)
		p.Connect(m, p.NewOperator(core.KindCollectionSink, "out"), 0)
		if _, err := Optimize(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeExhaustive is the unpruned baseline (small plans only).
func BenchmarkOptimizeExhaustive(b *testing.B) {
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(benchPlan(6), Options{Registry: reg, Exhaustive: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConversionTree measures the Steiner-tree movement planner.
func BenchmarkConversionTree(b *testing.B) {
	reg := benchRegistry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Graph.FindTree("collection", []string{"rdd", "dataset", "file"}, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
