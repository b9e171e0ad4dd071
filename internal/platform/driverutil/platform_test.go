package driverutil

import (
	"cmp"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem/internal/core"
)

func TestBootQuotesAndCharges(t *testing.T) {
	cases := []struct {
		name               string
		contextMs, jobMs   float64
		wantFirst, wantJob float64
	}{
		{"context and job", 3, 1, 4, 1},
		{"context only", 2, 0, 2, 0},
		{"free", 0, 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := &Boot{ContextMs: c.contextMs, JobMs: c.jobMs}
			if got := b.StartupCostMs(); got != c.wantFirst || b.Booted() {
				t.Fatalf("before the first job: quote %v (want %v), booted %v", got, c.wantFirst, b.Booted())
			}
			start := time.Now()
			b.Charge()
			if paid := time.Since(start); paid < time.Duration(c.wantFirst*float64(time.Millisecond)) {
				t.Fatalf("first job paid %v, want at least %v ms", paid, c.wantFirst)
			}
			if got := b.StartupCostMs(); got != c.wantJob || !b.Booted() {
				t.Fatalf("after the first job: quote %v (want %v), booted %v", got, c.wantJob, b.Booted())
			}
		})
	}
}

// TestBootConcurrentFirstJobs: two jobs racing to be a platform's first pay
// the context boot once between them. Run under -race.
func TestBootConcurrentFirstJobs(t *testing.T) {
	const contextMs = 80
	b := &Boot{ContextMs: contextMs}
	var wg sync.WaitGroup
	paid := make([]time.Duration, 2)
	for i := range paid {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			b.Charge()
			paid[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	booters := 0
	for _, d := range paid {
		if d >= contextMs*time.Millisecond {
			booters++
		}
	}
	if booters != 1 || !b.Booted() {
		t.Fatalf("jobs paid %v: %d of them paid the %d ms context boot, want exactly one", paid, booters, contextMs)
	}
}

func TestConvChecksThePayload(t *testing.T) {
	cv := Conv("toy.load", "file", "collection", 1.5, 0.25, func(path string, in *core.Channel) (*core.Channel, error) {
		return CollectionOf([]any{path, in.Card}), nil
	})
	if cv.Name != "toy.load" || cv.From != "file" || cv.To != "collection" || cv.FixedCostMs != 1.5 || cv.PerQuantumMs != 0.25 {
		t.Fatalf("declared %+v", cv)
	}
	out, err := cv.Convert(core.NewChannel(core.FileChannel, "/tmp/x", 7))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ChannelSlice(out); !reflect.DeepEqual(got, []any{"/tmp/x", int64(7)}) {
		t.Fatalf("converted %v", got)
	}
	for _, foreign := range []any{42, nil, []any{"/tmp/x"}, core.NewSliceDataset(nil)} {
		out, err := cv.Convert(core.NewChannel(core.FileChannel, foreign, 1))
		if err == nil || out != nil || !strings.Contains(err.Error(), "toy.load") {
			t.Fatalf("payload %T: channel %v, error %v; want an error naming the conversion", foreign, out, err)
		}
	}
}

func TestPartsCountAndCollect(t *testing.T) {
	rows := func(lo, hi int) []any {
		out := make([]any, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, core.Record{int64(i), float64(i) / 2})
		}
		return out
	}
	batch := func(lo, hi int) core.Segment {
		b, ok := core.BatchFromRows(rows(lo, hi))
		if !ok {
			t.Fatal("rows did not batch")
		}
		return core.Segment{Batch: b}
	}
	cases := map[string]Parts{
		"none":        nil,
		"empty parts": {nil, {}},
		"rows":        {{{Rows: rows(0, 5)}}, {{Rows: rows(5, 9)}}},
		"mixed":       {{{Rows: rows(0, 3)}, batch(3, 40)}, nil, {batch(40, 80), {Rows: rows(80, 81)}}},
	}
	for name, parts := range cases {
		t.Run(name, func(t *testing.T) {
			var want []any
			for _, part := range parts {
				want = append(want, core.SegmentRows(part)...)
			}
			got := parts.Collect()
			if parts.Count() != int64(len(want)) || len(got) != len(want) {
				t.Fatalf("Count %d, Collect %d quanta, flattened %d", parts.Count(), len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("quantum %d is %v, flattened rows have %v", i, got[i], want[i])
				}
			}
			// The result is the caller's: overwriting it leaves the segments alone.
			for i := range got {
				got[i] = nil
			}
			if again := parts.Collect(); len(again) > 0 && again[0] == nil {
				t.Fatal("Collect aliases a segment")
			}
		})
	}
}

func TestRegisterOpsAndWithout(t *testing.T) {
	ops := Without(GeneralOps, core.KindReduce, core.KindPageRank)
	if len(ops) != len(GeneralOps)-2 {
		t.Fatalf("Without left %d of %d ops", len(ops), len(GeneralOps))
	}
	at := 0
	for _, op := range GeneralOps { // order kept
		if op.Kind == core.KindReduce || op.Kind == core.KindPageRank {
			continue
		}
		if ops[at] != op {
			t.Fatalf("op %d is %v, want %v", at, ops[at], op)
		}
		at++
	}
	r := core.NewMappingRegistry()
	RegisterOps(r, "toy", []string{"b", "a"}, "a", ops)
	for _, op := range GeneralOps {
		alts := r.Alternatives(&core.Operator{Kind: op.Kind})
		if op.Kind == core.KindReduce || op.Kind == core.KindPageRank {
			if len(alts) != 0 {
				t.Fatalf("%s registered despite Without: %v", op.Kind, alts)
			}
			continue
		}
		// The engine's own channel, unless the op declares what it emits: of
		// the general ops only the collection sink does.
		if wantOut := map[core.Kind]string{core.KindCollectionSink: "collection"}[op.Kind]; op.Out != wantOut {
			t.Fatalf("%s declares out-channel %q, want %q", op.Kind, op.Out, wantOut)
		}
		want := core.Alternative{Platform: "toy", Steps: []core.ExecOpTemplate{{
			Name: "toy." + op.Suffix, Kind: op.Kind, In: []string{"b", "a"}, Out: cmp.Or(op.Out, "a"), Cost: op.Cost,
		}}}
		if len(alts) != 1 || !reflect.DeepEqual(alts[0], want) {
			t.Fatalf("%s: registered %+v, want %+v", op.Kind, alts, want)
		}
	}
}
