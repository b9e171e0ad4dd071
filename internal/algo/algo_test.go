package algo

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rheem/internal/core"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitset: len=%d count=%d", b.Len(), b.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d", b.Count())
	}
	if !b.Test(63) || !b.Test(64) || b.Test(62) {
		t.Fatal("Test wrong around word boundary")
	}
	b.Clear(63)
	if b.Test(63) || b.Count() != 5 {
		t.Fatal("Clear failed")
	}
}

func TestBitsetScanRange(t *testing.T) {
	b := NewBitset(200)
	want := []int{3, 64, 65, 130, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ScanFrom(0, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanFrom(0) = %v", got)
	}
	got = nil
	b.ScanRange(64, 131, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{64, 65, 130}) {
		t.Fatalf("ScanRange(64,131) = %v", got)
	}
	got = nil
	b.ScanFrom(131, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{199}) {
		t.Fatalf("ScanFrom(131) = %v", got)
	}
	// Degenerate ranges.
	b.ScanRange(50, 50, func(i int) { t.Fatal("empty range visited") })
	b.ScanRange(500, 600, func(i int) { t.Fatal("oob range visited") })
}

func TestBitsetScanMatchesNaive(t *testing.T) {
	f := func(seed int64, start, end uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitset(150)
		var set []int
		for i := 0; i < 150; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
				set = append(set, i)
			}
		}
		s, e := int(start)%160, int(end)%160
		var want []int
		for _, i := range set {
			if i >= s && i < e {
				want = append(want, i)
			}
		}
		var got []int
		b.ScanRange(s, e, func(i int) { got = append(got, i) })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// pair identifies a join result for comparison.
type pair struct{ l, r int }

// nestedLoopIE is the oracle: O(n*m) evaluation of the two conditions.
func nestedLoopIE(left, right [][2]float64, op1, op2 core.Inequality) []pair {
	var out []pair
	for i, l := range left {
		for j, r := range right {
			if op1.Holds(l[0], r[0]) && op2.Holds(l[1], r[1]) {
				out = append(out, pair{i, j})
			}
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].l != ps[b].l {
			return ps[a].l < ps[b].l
		}
		return ps[a].r < ps[b].r
	})
}

func runIEJoin(left, right [][2]float64, op1, op2 core.Inequality) []pair {
	lq := make([]any, len(left))
	for i := range left {
		lq[i] = i
	}
	rq := make([]any, len(right))
	for j := range right {
		rq[j] = j
	}
	var out []pair
	IEJoin(lq, rq,
		func(q any) (float64, float64) { v := left[q.(int)]; return v[0], v[1] },
		func(q any) (float64, float64) { v := right[q.(int)]; return v[0], v[1] },
		op1, op2,
		func(l, r any) { out = append(out, pair{l.(int), r.(int)}) })
	sortPairs(out)
	return out
}

func TestIEJoinTaxExample(t *testing.T) {
	// The paper's denial constraint: persons l, r violate if
	// l.salary > r.salary AND l.tax < r.tax.
	rows := [][2]float64{ // (salary, tax)
		{3000, 300},
		{4000, 250}, // violates with {3000,300}: higher salary, lower tax
		{5000, 500},
		{2000, 600},
	}
	got := runIEJoin(rows, rows, core.Greater, core.Less)
	want := nestedLoopIE(rows, rows, core.Greater, core.Less)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IEJoin = %v, want %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("test fixture has no violations; fixture broken")
	}
}

func TestIEJoinAllOperatorCombinations(t *testing.T) {
	ops := []core.Inequality{core.Less, core.LessEq, core.Greater, core.GreaterEq}
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) [][2]float64 {
		rows := make([][2]float64, n)
		for i := range rows {
			// Small value domain to force plenty of ties (the tricky case).
			rows[i] = [2]float64{float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		return rows
	}
	left, right := mk(40), mk(35)
	for _, op1 := range ops {
		for _, op2 := range ops {
			got := runIEJoin(left, right, op1, op2)
			want := nestedLoopIE(left, right, op1, op2)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("op1=%v op2=%v: got %d pairs, want %d", op1, op2, len(got), len(want))
			}
		}
	}
}

func TestIEJoinEmptySides(t *testing.T) {
	if got := runIEJoin(nil, [][2]float64{{1, 1}}, core.Less, core.Less); len(got) != 0 {
		t.Fatal("empty left must produce nothing")
	}
	if got := runIEJoin([][2]float64{{1, 1}}, nil, core.Less, core.Less); len(got) != 0 {
		t.Fatal("empty right must produce nothing")
	}
}

func TestIEJoinCount(t *testing.T) {
	rows := [][2]float64{{1, 2}, {2, 1}, {3, 3}}
	lq := make([]any, len(rows))
	for i := range rows {
		lq[i] = i
	}
	nums := func(q any) (float64, float64) { v := rows[q.(int)]; return v[0], v[1] }
	n := IEJoinCount(lq, lq, nums, nums, core.Less, core.Greater)
	want := int64(len(nestedLoopIE(rows, rows, core.Less, core.Greater)))
	if n != want {
		t.Fatalf("IEJoinCount = %d, want %d", n, want)
	}
}

func TestIEJoinPropertyRandom(t *testing.T) {
	ops := []core.Inequality{core.Less, core.LessEq, core.Greater, core.GreaterEq}
	f := func(seed int64, o1, o2 uint8, nl, nr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) [][2]float64 {
			rows := make([][2]float64, n)
			for i := range rows {
				rows[i] = [2]float64{float64(rng.Intn(10)), float64(rng.Intn(10))}
			}
			return rows
		}
		left, right := mk(int(nl)%30), mk(int(nr)%30)
		op1, op2 := ops[int(o1)%4], ops[int(o2)%4]
		return reflect.DeepEqual(runIEJoin(left, right, op1, op2), nestedLoopIE(left, right, op1, op2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func intsOf(data []any) []int {
	out := make([]int, len(data))
	for i, v := range data {
		out[i] = v.(int)
	}
	return out
}

func TestBernoulliSample(t *testing.T) {
	data := make([]any, 10000)
	for i := range data {
		data[i] = i
	}
	s := BernoulliSample(data, 0.1, 42)
	if len(s) < 800 || len(s) > 1200 {
		t.Fatalf("p=0.1 over 10k yielded %d", len(s))
	}
	// Determinism.
	s2 := BernoulliSample(data, 0.1, 42)
	if !reflect.DeepEqual(intsOf(s), intsOf(s2)) {
		t.Fatal("same seed produced different samples")
	}
	if got := BernoulliSample(data, 1.5, 1); len(got) != len(data) {
		t.Fatal("p>=1 must keep everything")
	}
	if got := BernoulliSample(data, 0, 1); got != nil {
		t.Fatal("p<=0 must keep nothing")
	}
}

func TestReservoirSample(t *testing.T) {
	data := make([]any, 1000)
	for i := range data {
		data[i] = i
	}
	s := ReservoirSample(data, 50, 7)
	if len(s) != 50 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		i := v.(int)
		if i < 0 || i >= 1000 || seen[i] {
			t.Fatalf("invalid or duplicate sample element %d", i)
		}
		seen[i] = true
	}
	if got := ReservoirSample(data, 2000, 7); len(got) != 1000 {
		t.Fatal("k>n must return all")
	}
	if got := ReservoirSample(data, 0, 7); got != nil {
		t.Fatal("k<=0 must return nothing")
	}
	// Uniformity smoke check: mean of many samples near population mean.
	sum := 0.0
	const rounds = 200
	for seed := int64(0); seed < rounds; seed++ {
		for _, v := range ReservoirSample(data, 10, seed) {
			sum += float64(v.(int))
		}
	}
	mean := sum / (10 * rounds)
	if mean < 400 || mean > 600 {
		t.Errorf("sample mean %.1f far from 499.5; sampler biased", mean)
	}
}

func TestShuffleFirstSample(t *testing.T) {
	data := make([]any, 100)
	for i := range data {
		data[i] = i
	}
	s := NewShuffleFirstSample(len(data), 3)
	d0 := s.Draw(data, 10, 0)
	d1 := s.Draw(data, 10, 1)
	if len(d0) != 10 || len(d1) != 10 {
		t.Fatalf("draw sizes %d, %d", len(d0), len(d1))
	}
	if reflect.DeepEqual(intsOf(d0), intsOf(d1)) {
		t.Fatal("successive rounds returned the same window")
	}
	// Ten rounds of 10 over 100 elements must cover every element exactly once.
	seen := map[int]int{}
	for round := 0; round < 10; round++ {
		for _, v := range s.Draw(data, 10, round) {
			seen[v.(int)]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("10 rounds covered %d distinct elements, want 100", len(seen))
	}
	// Oversized draws clamp; empty data yields nothing.
	if got := s.Draw(data, 500, 0); len(got) != 100 {
		t.Fatalf("oversized draw = %d", len(got))
	}
	empty := NewShuffleFirstSample(0, 1)
	if got := empty.Draw(nil, 5, 0); got != nil {
		t.Fatal("draw from empty data must be empty")
	}
}
