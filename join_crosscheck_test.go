package rheem

// Join crosschecks: a join runs in one of two shapes (driverutil's join),
// broadcast when the right side's quanta times the left side's partition
// count are at most the left side's quanta, keyed otherwise. Each case here
// pins a join to spark, flink and streams and holds its result to the
// reference interpreter's nested loop (platformtest.Interpret) as a multiset;
// a broadcast join keeps the left side where it lies, so its output is also
// in the oracle's order: left order, each quantum's matches in right order.

import (
	"fmt"
	"reflect"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/platformtest"
	"rheem/internal/platform/spark"
)

// joinWidth is spark's and flink's partition count in these tests, so a
// collection source reaches the join as joinWidth contiguous partitions;
// streams reads it as one.
const joinWidth = 3

// joinCase is one join: left and right sizes and the key of the i-th
// quantum of each side.
type joinCase struct {
	name              string
	left, right       int
	leftKey, rightKey func(i int) any
}

// broadcasts reports whether driverutil's rule picks the broadcast shape for
// c over parts left partitions.
func (c joinCase) broadcasts(parts int) bool { return c.right*parts <= c.left }

func modKey(m int) func(i int) any { return func(i int) any { return int64(i % m) } }

// joinCases are the cases for an engine that reads a collection as parts
// partitions: right × parts one below, equal to and one above the left
// side's size (both shapes, at the rule's edge), duplicate keys on both
// sides throughout, an empty side of either kind, nil keys and record keys
// (core.GroupKey's fmt.Sprint path).
func joinCases(parts int) []joinCase {
	right := 12 / parts
	return []joinCase{
		{"right×parts=left-1", 13, right, modKey(5), modKey(3)},
		{"right×parts=left", 12, right, modKey(5), modKey(3)},
		{"right×parts=left+1", 11, right, modKey(5), modKey(3)},
		{"many-to-many", 40, 3, modKey(2), modKey(2)},
		{"many-to-many-keyed", 9, 9, modKey(2), modKey(3)},
		{"empty-left", 0, 4, modKey(2), modKey(2)},
		{"empty-right", 12, 0, modKey(2), modKey(2)},
		{"nil-keys", 14, 4, func(i int) any {
			if i%3 == 0 {
				return nil
			}
			return int64(i % 2)
		}, func(i int) any {
			if i%2 == 0 {
				return nil
			}
			return int64(1)
		}},
		{"record-keys", 15, 4, func(i int) any { return core.Record{int64(i % 3), "k"} },
			func(i int) any { return core.Record{int64(i % 2), "k"} }},
		{"record-keys-keyed", 6, 6, func(i int) any { return core.Record{int64(i % 3), "k"} },
			func(i int) any { return core.Record{int64(i % 4), "k"} }},
	}
}

// joinSide builds n Records {key(i), side, i}.
func joinSide(n int, side string, key func(i int) any) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = core.Record{key(i), side, int64(i)}
	}
	return out
}

// TestJoinArmsMatchNestedLoop: every case, pinned to spark, flink and
// streams, joins to the nested loop's multiset of pairs, and a broadcast join
// to the nested loop's order too.
func TestJoinArmsMatchNestedLoop(t *testing.T) {
	ctx, err := NewContext(Config{
		FastSimulation: true,
		SparkConfig:    spark.Config{Parallelism: joinWidth},
		FlinkConfig:    flink.Config{Parallelism: joinWidth},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	arms := map[bool]int{}
	for _, platform := range []string{"spark", "flink", "streams"} {
		parts := joinWidth
		if platform == "streams" {
			parts = 1
		}
		for _, c := range joinCases(parts) {
			t.Run(platform+"/"+c.name, func(t *testing.T) {
				b := ctx.NewPlan("join-" + c.name)
				key := func(q any) any { return q.(core.Record)[0] }
				left := b.LoadCollection("left", joinSide(c.left, "l", c.leftKey))
				right := b.LoadCollection("right", joinSide(c.right, "r", c.rightKey))
				sink := left.Join(right, key, key, nil).CollectSink()
				plan := b.Plan()
				for _, op := range plan.Operators() {
					op.TargetPlatform = platform
				}
				oracle, err := platformtest.Interpret(plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle[sink]
				res, err := ctx.Execute(plan, WithResultCache(false))
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.CollectFrom(sink)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(joinCounts(got), joinCounts(want)) {
					t.Fatalf("%d pairs, want the nested loop's %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
				}
				broadcast := c.broadcasts(parts)
				arms[broadcast]++
				if broadcast && len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("a broadcast join out of the left side's order:\ngot  %v\nwant %v", got, want)
				}
			})
		}
	}
	if arms[true] == 0 || arms[false] == 0 {
		t.Fatalf("cases by shape %v: both shapes must run", arms)
	}
}

// joinCounts is the multiset of join outputs, each counted by its printed
// form.
func joinCounts(out []any) map[string]int {
	counts := make(map[string]int, len(out))
	for _, q := range out {
		counts[fmt.Sprint(q)]++
	}
	return counts
}
