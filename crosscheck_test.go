package rheem

// Differential testing: for randomly generated plans, the optimizer's
// free-choice execution must produce exactly the same logical result as the
// same plan pinned to the single-node reference platform. This checks the
// whole stack — mappings, movement, stage extraction, engines — against a
// simple oracle, across many plan shapes.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rheem/internal/core"
)

// randomPlan builds a random DAG of deterministic integer operators.
func randomPlan(ctx *Context, rng *rand.Rand, id int) (*core.Plan, *core.Operator) {
	b := ctx.NewPlan(fmt.Sprintf("crosscheck-%d", id))

	mkSource := func(label string) *DataQuanta {
		n := 50 + rng.Intn(400)
		mod := int64(3 + rng.Intn(40))
		data := make([]any, n)
		for i := range data {
			data[i] = int64(i) % mod
		}
		return b.LoadCollection(label, data)
	}

	// A pool of live dataflow heads; unary ops extend one, binary ops merge
	// two.
	heads := []*DataQuanta{mkSource("s0")}
	if rng.Intn(2) == 0 {
		heads = append(heads, mkSource("s1"))
	}

	steps := 3 + rng.Intn(6)
	for i := 0; i < steps; i++ {
		pick := rng.Intn(len(heads))
		d := heads[pick]
		switch op := rng.Intn(14); {
		case op == 0:
			d = d.Map("inc", func(q any) any { return q.(int64) + 1 })
		case op == 1:
			k := int64(2 + rng.Intn(5))
			d = d.Filter("mod", func(q any) bool { return q.(int64)%k == 0 })
		case op == 2:
			d = d.FlatMap("dup", func(q any) []any {
				v := q.(int64)
				return []any{v, v + 100}
			})
		case op == 3:
			d = d.Distinct()
		case op == 4:
			d = d.Sort(nil)
		case op == 5:
			// The reducer returns one of its operands, so the reduced value
			// keeps its key: the two-phase engines re-key map-side partials.
			d = d.ReduceBy("max",
				func(q any) any { return q.(int64) % 7 },
				func(a, b any) any { return max(a.(int64), b.(int64)) })
		case op == 6 && len(heads) > 1:
			other := heads[(pick+1)%len(heads)]
			d = d.Union(other)
			heads = []*DataQuanta{d}
			pick = 0
		case op == 7 && len(heads) > 1:
			other := heads[(pick+1)%len(heads)]
			d = d.Join(other,
				func(q any) any { return q.(int64) % 5 },
				func(q any) any { return q.(int64) % 5 },
				func(l, r any) any { return l.(int64)*1000 + r.(int64) })
			heads = []*DataQuanta{d}
			pick = 0
		// Group contents are partition-ordered, so the kinds that emit groups
		// are followed by a map to an order-free int64 summary.
		case op == 8:
			d = d.GroupBy("by-mod7", func(q any) any { return q.(int64) % 7 }).
				Map("group-summary", func(q any) any {
					g := q.(core.Group)
					return g.Key.(int64) + 31*int64(len(g.Values)) + 977*sumInts(g.Values)
				})
		case op == 9:
			d = d.Count()
		case op == 10:
			d = d.Reduce("sum", func(a, b any) any { return a.(int64) + b.(int64) })
		case op == 11 && len(heads) > 1:
			d = d.Intersect(heads[(pick+1)%len(heads)])
			heads = []*DataQuanta{d}
			pick = 0
		case op == 12 && len(heads) > 1:
			mod5 := func(q any) any { return q.(int64) % 5 }
			d = d.CoGroup(heads[(pick+1)%len(heads)], mod5, mod5).
				Map("cogroup-summary", func(q any) any {
					rec := q.(core.Record)
					l, r := rec[1].([]any), rec[2].([]any)
					return rec[0].(int64) + 31*int64(len(l)) + 53*int64(len(r)) + 977*sumInts(l) + 1009*sumInts(r)
				})
			heads = []*DataQuanta{d}
			pick = 0
		case op == 13 && len(heads) > 1:
			nums := func(q any) (float64, float64) { return float64(q.(int64)), float64(q.(int64) % 5) }
			d = d.IEJoin(heads[(pick+1)%len(heads)], nums, nums, core.Greater, core.Less,
				func(l, r any) any { return l.(int64)*1000 + r.(int64) })
			heads = []*DataQuanta{d}
			pick = 0
		default:
			d = d.Map("noop", func(q any) any { return q })
		}
		heads[pick] = d
	}
	// Bound blow-up from joins/flatmaps before collecting.
	final := heads[0]
	for _, extra := range heads[1:] {
		final = final.Union(extra)
	}
	sink := final.CollectSink()
	return b.Plan(), sink
}

func sumInts(values []any) (sum int64) {
	for _, v := range values {
		sum += v.(int64)
	}
	return sum
}

func canonical(t *testing.T, data []any) []string {
	t.Helper()
	out := make([]string, len(data))
	for i, q := range data {
		out[i] = fmt.Sprint(q)
	}
	sort.Strings(out)
	return out
}

func TestCrossCheckOptimizerAgainstReferencePlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	for i := 0; i < 25; i++ {
		// Fresh contexts so plans/operators do not alias across runs.
		free := fastCtx(t)
		pinned := fastCtx(t)

		// Build the same plan twice from the same RNG state.
		seed := rng.Int63()
		planFree, sinkFree := randomPlan(free, rand.New(rand.NewSource(seed)), i)
		planPinned, sinkPinned := randomPlan(pinned, rand.New(rand.NewSource(seed)), i)
		for _, op := range planPinned.Operators() {
			op.TargetPlatform = "streams"
		}

		resFree, err := free.Execute(planFree)
		if err != nil {
			t.Fatalf("plan %d free: %v\n%s", i, err, planFree)
		}
		resPinned, err := pinned.Execute(planPinned)
		if err != nil {
			t.Fatalf("plan %d pinned: %v", i, err)
		}
		outFree, err := resFree.CollectFrom(sinkFree)
		if err != nil {
			t.Fatal(err)
		}
		outPinned, err := resPinned.CollectFrom(sinkPinned)
		if err != nil {
			t.Fatal(err)
		}
		cf, cp := canonical(t, outFree), canonical(t, outPinned)
		if len(cf) != len(cp) {
			t.Fatalf("plan %d: cardinality %d (platforms %v) vs reference %d\n%s",
				i, len(cf), resFree.Platforms(), len(cp), planFree)
		}
		for j := range cf {
			if cf[j] != cp[j] {
				t.Fatalf("plan %d: result %d differs: %q vs %q (platforms %v)",
					i, j, cf[j], cp[j], resFree.Platforms())
			}
		}
	}
}
