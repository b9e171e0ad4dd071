package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rheem"
	"rheem/apps/datacivilizer"
	"rheem/internal/core"
	"rheem/internal/datagen"
	"rheem/internal/tasks"
)

// fetchFunc brings an executed job's output into the caller's hands: a
// collected sink, or a sink file read back.
type fetchFunc func(*rheem.Result) (any, error)

// batchWorkload is a workload a library caller runs: one client blocking on
// Context.Execute, job after job.
type batchWorkload struct {
	name string
	// cfg is the context configuration: FastSimulation, or the zero value
	// for the paper's simulated cluster latencies.
	cfg rheem.Config
	// load generates the inputs from the seed, loads them into the context's
	// stores and computes the reference oracle.
	load func(ctx *rheem.Context, dir string, seed int64, scale float64) (*batchInstance, error)
}

// batchInstance is a loaded workload: inputs in place, oracle computed.
type batchInstance struct {
	sizes map[string]int
	// newJob builds the plan of job number n.
	newJob func(ctx *rheem.Context, n int) (*core.Plan, fetchFunc, error)
	// check compares one job's output with the oracle, which is never
	// computed by the system under test.
	check func(out any) error
	// oracleS is the time load spent on the oracle; it is harness work and
	// is taken out of setup_s.
	oracleS float64
	probes  probeInputs
}

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

// sameFloat compares at relative 1e-9: Q5 revenue differs in the last ulp
// between two runs of one commit, because parallel summation order varies.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

var batchWorkloads = []batchWorkload{
	{name: "declarative_agg", cfg: rheem.Config{FastSimulation: true}, load: loadAgg},
	{name: "udf_wordcount", load: loadWordCount},
	{name: "iterative_sgd", load: loadSGD},
	{name: "polystore_q5", cfg: rheem.Config{FastSimulation: true}, load: loadQ5},
}

// --- declarative_agg ---

var aggExpr = core.ReduceExpr{
	GroupCols: []int{2},
	Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 0},
		{Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggAvg, Col: 1},
	},
}

func buildAgg(ctx *rheem.Context, data []any) (*rheem.PlanBuilder, *core.Operator) {
	b := ctx.NewPlan("declarative-agg")
	sink := b.LoadCollection("recs", data).
		FilterWhere("gt", core.Predicate{Col: 0, Op: core.PredGt, Value: int64(500)}).
		MapExpr("add", core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(5)}).
		ReduceByExpr("agg-by-group", aggExpr).
		CollectSink()
	return b, sink
}

func loadAgg(ctx *rheem.Context, dir string, seed int64, scale float64) (*batchInstance, error) {
	n := scaled(500000, scale)
	rng := newRand(seed)
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 9973), rng.Float64() * 50, "g" + strconv.Itoa(i%7)}
	}

	t0 := time.Now()
	type group struct {
		sum, count int64
		fsum       float64
	}
	want := map[string]*group{}
	for _, q := range data {
		r := q.(core.Record)
		if r[0].(int64) <= 500 {
			continue
		}
		g := want[r[2].(string)]
		if g == nil {
			g = &group{}
			want[r[2].(string)] = g
		}
		g.sum += r[0].(int64) + 5
		g.count++
		g.fsum += r[1].(float64)
	}
	oracleS := time.Since(t0).Seconds()

	// The narrow chain and its absorbed aggregation, for the kernel probes.
	_, sink := buildAgg(ctx, data)
	reduce := sink.Inputs()[0]
	mapOp := reduce.Inputs()[0]
	filter := mapOp.Inputs()[0]

	return &batchInstance{
		sizes: map[string]int{"records": n},
		newJob: func(ctx *rheem.Context, _ int) (*core.Plan, fetchFunc, error) {
			b, sink := buildAgg(ctx, data)
			return b.Plan(), func(res *rheem.Result) (any, error) { return res.CollectFrom(sink) }, nil
		},
		check: func(out any) error {
			rows := out.([]any)
			if len(rows) != len(want) {
				return fmt.Errorf("%d groups, want %d", len(rows), len(want))
			}
			for _, q := range rows {
				r, ok := q.(core.Record)
				if !ok || len(r) != 4 {
					return fmt.Errorf("bad row %v", q)
				}
				g := want[r.String(0)]
				if g == nil {
					return fmt.Errorf("unknown group %v", r[0])
				}
				if r[1] != g.sum || r[2] != g.count || !sameFloat(r.Float(3), g.fsum/float64(g.count)) {
					return fmt.Errorf("group %v = %v, want sum %d count %d avg %g", r[0], r[1:], g.sum, g.count, g.fsum/float64(g.count))
				}
			}
			return nil
		},
		oracleS: oracleS,
		probes:  probeInputs{records: data, vectorOps: []*core.Operator{filter, mapOp}, aggOp: reduce},
	}, nil
}

// --- udf_wordcount ---

func splitWords(q any) []any {
	fields := strings.Fields(q.(string))
	out := make([]any, len(fields))
	for i, w := range fields {
		out[i] = core.KV{Key: w, Value: int64(1)}
	}
	return out
}

// buildWordCount is tasks.WordCount with the collect sink swapped for a DFS
// text file: the task builder ends in its own sink, and a plan with two
// sinks would be a different job.
func buildWordCount(ctx *rheem.Context, in, out string) *rheem.PlanBuilder {
	b := ctx.NewPlan("udf-wordcount")
	b.ReadTextFile(in).
		FlatMap("split", splitWords).
		ReduceBy("count",
			func(q any) any { return q.(core.KV).Key },
			func(a, b any) any {
				ka, kb := a.(core.KV), b.(core.KV)
				return core.KV{Key: ka.Key, Value: ka.Value.(int64) + kb.Value.(int64)}
			}).
		WriteTextFile(out, func(q any) string {
			kv := q.(core.KV)
			return kv.Key.(string) + "\t" + strconv.FormatInt(kv.Value.(int64), 10)
		})
	return b
}

func loadWordCount(ctx *rheem.Context, dir string, seed int64, scale float64) (*batchInstance, error) {
	lines := datagen.Words(scaled(20000, scale), 9, 30000, seed)
	if err := ctx.DFS.WriteLines("corpus.txt", lines); err != nil {
		return nil, err
	}

	t0 := time.Now()
	want := map[string]int64{}
	for _, l := range lines {
		for _, w := range strings.Fields(l) {
			want[w]++
		}
	}
	oracleS := time.Since(t0).Seconds()

	split := ctx.NewPlan("probe").ReadTextFile("dfs://corpus.txt").FlatMap("split", splitWords).Op()
	return &batchInstance{
		sizes: map[string]int{"lines": len(lines), "distinct_words": len(want)},
		newJob: func(ctx *rheem.Context, n int) (*core.Plan, fetchFunc, error) {
			out := fmt.Sprintf("counts-%d.txt", n)
			b := buildWordCount(ctx, "dfs://corpus.txt", "dfs://"+out)
			return b.Plan(), func(*rheem.Result) (any, error) {
				got, err := ctx.DFS.ReadLines(out)
				if err != nil {
					return nil, err
				}
				return got, ctx.DFS.Delete(out)
			}, nil
		},
		check: func(out any) error {
			got := out.([]string)
			if len(got) != len(want) {
				return fmt.Errorf("%d distinct words, want %d", len(got), len(want))
			}
			for _, l := range got {
				word, count, ok := strings.Cut(l, "\t")
				if !ok || strconv.FormatInt(want[word], 10) != count {
					return fmt.Errorf("line %q, want count %d", l, want[word])
				}
			}
			return nil
		},
		oracleS: oracleS,
		probes:  probeInputs{records: anyStrings(lines), lines: lines, fusedOps: []*core.Operator{split}},
	}, nil
}

func anyStrings(lines []string) []any {
	out := make([]any, len(lines))
	for i, l := range lines {
		out[i] = l
	}
	return out
}

// --- iterative_sgd ---

func loadSGD(ctx *rheem.Context, dir string, seed int64, scale float64) (*batchInstance, error) {
	const dim = 10
	lines := datagen.PointLines(datagen.Points(scaled(2000, scale), dim, seed))
	if err := ctx.DFS.WriteLines("points.txt", lines); err != nil {
		return nil, err
	}
	iterations := scaled(40, math.Sqrt(scale))
	var first []float64
	return &batchInstance{
		sizes: map[string]int{"points": len(lines), "dim": dim, "iterations": iterations, "batch": 50},
		newJob: func(ctx *rheem.Context, _ int) (*core.Plan, fetchFunc, error) {
			b, final, err := tasks.SGD(ctx, "dfs://points.txt", tasks.SGDOptions{Iterations: iterations, BatchSize: 50, Dim: dim, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			sink := final.CollectSink()
			return b.Plan(), func(res *rheem.Result) (any, error) { return res.CollectFrom(sink) }, nil
		},
		// No closed form exists for the weights, so the check is shape,
		// finiteness and equality to the first job checked: the sampler is
		// seeded, so every job must produce the same model.
		check: func(out any) error {
			rows := out.([]any)
			if len(rows) != 1 {
				return fmt.Errorf("%d models, want 1", len(rows))
			}
			w, ok := rows[0].([]float64)
			if !ok || len(w) != dim {
				return fmt.Errorf("model %v, want %d weights", rows[0], dim)
			}
			for i, x := range w {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("weight %d is %v", i, x)
				}
				if first != nil && !sameFloat(x, first[i]) {
					return fmt.Errorf("weight %d = %g, first job had %g", i, x, first[i])
				}
			}
			if first == nil {
				first = append([]float64(nil), w...)
			}
			return nil
		},
		probes: probeInputs{records: anyStrings(lines), lines: lines},
	}, nil
}

// --- polystore_q5 ---

const (
	q5Region = "ASIA"
	q5DateLo = 100
)

func loadQ5(ctx *rheem.Context, dir string, seed int64, scale float64) (*batchInstance, error) {
	db := datagen.GenTPCH(0.7*scale, seed)
	lay, err := datacivilizer.LoadPolystore(ctx, db, dir)
	if err != nil {
		return nil, err
	}

	// Keys are dense row indexes in the generated tables, so the reference
	// walks lineitem once and follows each foreign key by indexing.
	t0 := time.Now()
	region := int64(-1)
	for _, r := range db.Region {
		if r.String(datagen.RegionName) == q5Region {
			region = r.Int(datagen.RegionKey)
		}
	}
	want := map[string]float64{}
	for _, li := range db.Lineitem {
		o := db.Orders[li.Int(datagen.LIOrderKey)]
		if d := o.Int(datagen.OrderDate); d < q5DateLo || d >= q5DateLo+365 {
			continue
		}
		c := db.Customer[o.Int(datagen.OrderCustKey)]
		s := db.Supplier[li.Int(datagen.LISuppKey)]
		if c.Int(datagen.CustNationKey) != s.Int(datagen.SuppNationKey) {
			continue
		}
		n := db.Nation[s.Int(datagen.SuppNationKey)]
		if n.Int(datagen.NationRegionKey) != region {
			continue
		}
		want[n.String(datagen.NationName)] += li.Float(datagen.LIExtPrice) * (1 - li.Float(datagen.LIDiscount))
	}
	oracleS := time.Since(t0).Seconds()

	return &batchInstance{
		sizes: db.Sizes(),
		newJob: func(ctx *rheem.Context, _ int) (*core.Plan, fetchFunc, error) {
			b, sink := datacivilizer.BuildQ5(ctx, lay, q5Region, q5DateLo)
			return b.Plan(), func(res *rheem.Result) (any, error) { return res.CollectFrom(sink) }, nil
		},
		check: func(out any) error {
			rows := out.([]any)
			if len(rows) != len(want) {
				return fmt.Errorf("%d nations, want %d", len(rows), len(want))
			}
			prev := math.Inf(1)
			for _, q := range rows {
				r, ok := q.(core.Record)
				if !ok || len(r) != 2 {
					return fmt.Errorf("bad row %v", q)
				}
				rev, found := want[r.String(0)]
				if !found || !sameFloat(r.Float(1), rev) {
					return fmt.Errorf("nation %v revenue %v, want %g", r[0], r[1], rev)
				}
				if r.Float(1) > prev {
					return fmt.Errorf("rows not sorted by revenue")
				}
				prev = r.Float(1)
			}
			return nil
		},
		oracleS: oracleS,
		probes: probeInputs{
			records: datagen.AnySlice(db.Lineitem),
			lines:   datagen.RecordLines(db.Lineitem),
			relRows: db.Customer,
		},
	}, nil
}

// freshDir empties and returns the directory one set-up of a workload owns.
func freshDir(root, workload string, rep int) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", workload, rep))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
