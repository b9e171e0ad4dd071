package rheem

// Morsel-boundary crosschecks: the vector tier walks a partition in morsels
// of 4096 rows, refilling one column batch per morsel and absorbing every
// morsel into one aggregation state. Each test here holds partitions whose
// shape changes at or near a morsel boundary to the reference interpreter
// (platformtest.Interpret), pinned to spark, flink and streams at one
// partition per engine, so the outputs must match in order — groups in
// first-occurrence order, bit for bit — and the per-operator cardinalities
// exactly; the column-path counters must show one batch or fallback per
// morsel.

import (
	"fmt"
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/monitor"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/platformtest"
	"rheem/internal/platform/spark"
)

// morselRows is driverutil's morsel length.
const morselRows = 4096

// morselEngines are the engines the tests pin, each run at one partition so
// a partition is the whole input.
var morselEngines = []string{"spark", "flink", "streams"}

// morselChain is one column-path entry over a source: a narrow chain (the
// kernel's Run), one ending in a declarative reduce-by (RunAgg) or one
// ending in a UDF reduce-by (the keyed fold). The "-tail" chains end their
// column prefix in an opaque map, so each morsel's survivors finish on the
// row kernel.
type morselChain struct {
	name  string
	build func(src *DataQuanta) *DataQuanta
}

// morselChains are the entries over Records of the form
// {int64, number, group}: each filters on column 0 and rewrites it, so every
// morsel runs a filter and a map column-wise.
var morselChains = []morselChain{
	{"narrow", func(src *DataQuanta) *DataQuanta {
		return morselPrefix(src).Project(2, 0, 1)
	}},
	{"narrow-tail", func(src *DataQuanta) *DataQuanta {
		return morselPrefix(src).Map("opaque", func(q any) any { return q })
	}},
	{"agg", func(src *DataQuanta) *DataQuanta {
		return morselPrefix(src).ReduceByExpr("agg", morselAgg)
	}},
	{"agg-tail", func(src *DataQuanta) *DataQuanta {
		return morselPrefix(src).Map("opaque", func(q any) any { return q }).ReduceByExpr("agg", morselAgg)
	}},
	{"fold", func(src *DataQuanta) *DataQuanta {
		return morselPrefix(src).ReduceBy("sum-by-group",
			func(q any) any { return q.(core.Record)[2] },
			func(a, b any) any {
				ar, br := a.(core.Record), b.(core.Record)
				return core.Record{ar[0].(int64) + br[0].(int64), ar[1], ar[2]}
			})
	}},
}

func morselPrefix(src *DataQuanta) *DataQuanta {
	return src.FilterWhere("keep", core.Predicate{Col: 0, Op: core.PredGt, Value: int64(2)}).
		MapExpr("shift", core.MapExpr{Col: 0, Op: core.NumAdd, Operand: int64(5)})
}

var morselAgg = core.ReduceExpr{
	GroupCols: []int{2},
	Aggs: []core.AggSpec{
		{Op: core.AggSum, Col: 0},
		{Op: core.AggCount, Col: core.WholeQuantum},
		{Op: core.AggSum, Col: 1},
		{Op: core.AggMin, Col: 1},
		{Op: core.AggMax, Col: 1},
		{Op: core.AggAvg, Col: 1},
	},
}

// morselRecords builds n Records {i%37, i%11 / 2, group(i)}.
func morselRecords(n int, group func(i int) any) []any {
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 37), float64(i%11) / 2, group(i)}
	}
	return data
}

// morselCounts are a run's column-path counters summed over its chains.
type morselCounts struct{ batches, fallbacks, aggBatches int64 }

func morselCountsOf(res *Result) (c morselCounts) {
	for _, st := range res.inner.Entries {
		for _, v := range st.Vectorized {
			c.batches += v.Batches
			c.fallbacks += v.Fallbacks
			c.aggBatches += v.AggBatches
		}
	}
	return c
}

// checkMorselRun runs chain over data on platform at one partition and
// holds it to the reference interpreter: the sink in order, every
// operator's cardinality, and the run's column-path counters.
func checkMorselRun(t *testing.T, data []any, chain morselChain, platform string) morselCounts {
	t.Helper()
	ctx, err := NewContext(Config{
		FastSimulation: true,
		SparkConfig:    spark.Config{Parallelism: 1},
		FlinkConfig:    flink.Config{Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	b := ctx.NewPlan("morsel-" + chain.name)
	sink := chain.build(b.LoadCollection("src", data)).CollectSink()
	plan := b.Plan()
	for _, op := range plan.Operators() {
		op.TargetPlatform = platform
	}
	want, err := platformtest.Interpret(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(plan, WithResultCache(false))
	if err != nil {
		t.Fatalf("%s on %s: %v", chain.name, platform, err)
	}
	got, err := res.CollectFrom(sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[sink]) {
		t.Fatalf("%s on %s: %d quanta differ from the reference's %d in order or value; first got %v, want %v",
			chain.name, platform, len(got), len(want[sink]), head(got), head(want[sink]))
	}
	cards := monitor.ObservedCards(res.Record().Entries)
	for _, op := range plan.Operators() {
		if n, ok := cards[op]; !ok || n != int64(len(want[op])) {
			t.Fatalf("%s on %s: %s reported cardinality %d (reported=%v), reference %d",
				chain.name, platform, op, n, ok, len(want[op]))
		}
	}
	return morselCountsOf(res)
}

func head(xs []any) []any { return xs[:min(4, len(xs))] }

// morsels is how many morsels n rows make.
func morsels(n int) int64 { return int64((n + morselRows - 1) / morselRows) }

// TestMorselBoundaries: partitions one row short of a morsel, exactly one,
// one row over, and three morsels and a row run every entry column-wise,
// one batch per morsel, with the reference's output.
func TestMorselBoundaries(t *testing.T) {
	for _, n := range []int{morselRows - 1, morselRows, morselRows + 1, 3*morselRows + 1} {
		data := morselRecords(n, func(i int) any { return fmt.Sprintf("g%d", i%9) })
		for _, chain := range morselChains {
			for _, platform := range morselEngines {
				t.Run(fmt.Sprintf("%d/%s/%s", n, chain.name, platform), func(t *testing.T) {
					c := checkMorselRun(t, data, chain, platform)
					if c.batches != morsels(n) || c.fallbacks != 0 {
						t.Fatalf("%d batches, %d fallbacks; want %d and 0", c.batches, c.fallbacks, morsels(n))
					}
					if chain.name == "agg" && c.aggBatches != morsels(n) {
						t.Fatalf("%d batches absorbed column-wise, want %d", c.aggBatches, morsels(n))
					}
				})
			}
		}
	}
}

// TestMorselColumnTypeChanges: column 1 is int64 in the first morsel and
// float64 after it. Each morsel batches with one type, so every morsel runs
// column-wise, and the sums, minima and maxima move from the int64 to the
// float64 domain at the boundary exactly as the row fold does.
func TestMorselColumnTypeChanges(t *testing.T) {
	n := 3*morselRows + 1
	data := morselRecords(n, func(i int) any { return fmt.Sprintf("g%d", i%9) })
	for i := 0; i < morselRows; i++ {
		data[i].(core.Record)[1] = int64(i % 11)
	}
	for _, chain := range morselChains {
		for _, platform := range morselEngines {
			t.Run(chain.name+"/"+platform, func(t *testing.T) {
				c := checkMorselRun(t, data, chain, platform)
				if c.batches != morsels(n) || c.fallbacks != 0 {
					t.Fatalf("%d batches, %d fallbacks; want %d and 0", c.batches, c.fallbacks, morsels(n))
				}
			})
		}
	}
}

// TestMorselNilHolesStraddleBoundary: the group column holds nils from 6
// rows before the first morsel boundary to 6 rows after it. The aggregation
// refuses both morsels with holes, which absorb by rows in their place, and
// runs the others column-wise; nil is a group of its own either way. The
// other chains never build the group column for their column prefix, so
// every morsel runs column-wise for them.
func TestMorselNilHolesStraddleBoundary(t *testing.T) {
	n := 3*morselRows + 1
	data := morselRecords(n, func(i int) any {
		if i >= morselRows-6 && i < morselRows+6 {
			return nil
		}
		return fmt.Sprintf("g%d", i%9)
	})
	for _, chain := range morselChains {
		for _, platform := range morselEngines {
			t.Run(chain.name+"/"+platform, func(t *testing.T) {
				c := checkMorselRun(t, data, chain, platform)
				want := morselCounts{batches: morsels(n)}
				if chain.name == "agg" {
					want = morselCounts{batches: morsels(n) - 2, fallbacks: 2, aggBatches: morsels(n) - 2}
				}
				if c.batches != want.batches || c.fallbacks != want.fallbacks || (chain.name == "agg" && c.aggBatches != want.aggBatches) {
					t.Fatalf("counters %+v, want %+v", c, want)
				}
			})
		}
	}
}

// TestMorselDictionaryOverflowsLater: the group column is dictionary-encoded
// in the first morsel (9 distinct values), passes the dictionary bound in
// the second (300 distinct, stored plain), and is dictionary-encoded again
// in the third with its values first seen in another order, so a dictionary
// code means another group in each morsel.
func TestMorselDictionaryOverflowsLater(t *testing.T) {
	n := 3*morselRows + 1
	data := morselRecords(n, func(i int) any {
		switch i / morselRows {
		case 0:
			return fmt.Sprintf("g%d", i%9)
		case 1:
			return fmt.Sprintf("h%d", i%300)
		}
		return fmt.Sprintf("h%d", 299-i%9)
	})
	for _, chain := range morselChains {
		for _, platform := range morselEngines {
			t.Run(chain.name+"/"+platform, func(t *testing.T) {
				c := checkMorselRun(t, data, chain, platform)
				if c.batches != morsels(n) || c.fallbacks != 0 {
					t.Fatalf("%d batches, %d fallbacks; want %d and 0", c.batches, c.fallbacks, morsels(n))
				}
			})
		}
	}
}

// TestMorselGroupOrderAcrossMorsels: every morsel first sees five new groups,
// in descending order, and then the groups of earlier morsels again. Groups
// come out in first-occurrence order across the partition.
func TestMorselGroupOrderAcrossMorsels(t *testing.T) {
	n := 3*morselRows + 1
	data := morselRecords(n, func(i int) any {
		m, j := i/morselRows, i%morselRows
		if j < 5 {
			return fmt.Sprintf("k%02d", 5*m+4-j)
		}
		return fmt.Sprintf("k%02d", j%(5*m+5))
	})
	for _, chain := range morselChains {
		for _, platform := range morselEngines {
			t.Run(chain.name+"/"+platform, func(t *testing.T) {
				c := checkMorselRun(t, data, chain, platform)
				if c.batches != morsels(n) || c.fallbacks != 0 {
					t.Fatalf("%d batches, %d fallbacks; want %d and 0", c.batches, c.fallbacks, morsels(n))
				}
			})
		}
	}
}
