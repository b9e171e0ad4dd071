package streams

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/platformtest"
	"rheem/internal/storage/dfs"
)

func testDriver(t *testing.T) *Driver {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	d := New(store)
	d.TempDir = t.TempDir()
	return d
}

func TestConformance(t *testing.T) {
	platformtest.Run(t, testDriver(t))
}

func TestTextFileSourceLocal(t *testing.T) {
	d := testDriver(t)
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := core.WriteTextFile(path, []any{"one", "two"}, nil); err != nil {
		t.Fatal(err)
	}
	op := &core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: path}}
	got := platformtest.RunOp(t, d, op)
	if !reflect.DeepEqual(got, []any{"one", "two"}) {
		t.Fatalf("got %v", got)
	}
}

func TestTextFileSourceDFS(t *testing.T) {
	d := testDriver(t)
	if err := d.DFS.WriteLines("corpus.txt", []string{"a b", "c"}); err != nil {
		t.Fatal(err)
	}
	op := &core.Operator{Kind: core.KindTextFileSource, Params: core.Params{Path: "dfs://corpus.txt"}}
	got := platformtest.RunOp(t, d, op)
	if !reflect.DeepEqual(got, []any{"a b", "c"}) {
		t.Fatalf("got %v", got)
	}
}

func TestTextFileSinkLocal(t *testing.T) {
	d := testDriver(t)
	path := filepath.Join(t.TempDir(), "out.txt")
	op := &core.Operator{Kind: core.KindTextFileSink, Params: core.Params{Path: path}}
	platformtest.RunOp(t, d, op, platformtest.CollectionChannel("x", "y"))
	lines, err := core.ReadTextFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lines, []any{"x", "y"}) {
		t.Fatalf("got %v", lines)
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	d := testDriver(t)
	convs := map[string]*core.Conversion{}
	for _, cv := range d.Conversions() {
		convs[cv.Name] = cv
	}
	in := platformtest.CollectionChannel(core.Record{int64(1), "a"}, "plain")

	spilled, err := convs["streams.spill"].Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Desc.Name != "file" || spilled.Card != 2 {
		t.Fatalf("spilled = %+v", spilled)
	}
	back, err := convs["streams.fetch"].Convert(spilled)
	if err != nil {
		t.Fatal(err)
	}
	data := core.Materialize(back.Payload.(core.Dataset))
	if len(data) != 2 || data[1] != "plain" {
		t.Fatalf("fetched %v", data)
	}

	// DFS round trip.
	put, err := convs["streams.dfs-put"].Convert(in)
	if err != nil {
		t.Fatal(err)
	}
	if put.Desc.Name != "dfs" {
		t.Fatalf("dfs-put desc = %v", put.Desc)
	}
	got, err := convs["streams.dfs-get"].Convert(put)
	if err != nil {
		t.Fatal(err)
	}
	data = core.Materialize(got.Payload.(core.Dataset))
	if len(data) != 2 || data[1] != "plain" {
		t.Fatalf("dfs round trip %v", data)
	}
}

func TestLazyPipelineSingleConsumerCountsOnce(t *testing.T) {
	d := testDriver(t)
	calls := 0
	src := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{int64(1), int64(2), int64(3)}}}
	m := &core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { calls++; return q }}}
	platformtest.RunChain(t, d, []*core.Operator{src, m})
	if calls != 3 {
		t.Fatalf("map UDF ran %d times, want 3 (pipeline re-executed?)", calls)
	}
}

func TestMultiConsumerMaterializesOnce(t *testing.T) {
	d := testDriver(t)
	calls := 0
	p := core.NewPlan("diamond")
	src := p.Add(&core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{int64(1), int64(2)}}})
	m := p.Add(&core.Operator{Kind: core.KindMap, UDF: core.UDFs{Map: func(q any) any { calls++; return q.(int64) + 1 }}})
	c1 := p.Add(&core.Operator{Kind: core.KindCount})
	c2 := p.Add(&core.Operator{Kind: core.KindCount})
	p.Connect(src, m, 0)
	p.Connect(m, c1, 0)
	p.Connect(m, c2, 0)

	stage := &core.Stage{ID: 1, Platform: Platform, Ops: []*core.Operator{src, m, c1, c2}, TerminalOuts: []*core.Operator{c1, c2}}
	outs, _, err := d.Execute(stage, core.NewInputs())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("map UDF ran %d times, want 2 (shared result not materialized)", calls)
	}
	for _, term := range []*core.Operator{c1, c2} {
		data := outs[term].Payload.(*core.SliceDataset).Data
		if len(data) != 1 || data[0].(int64) != 2 {
			t.Fatalf("count output %v", data)
		}
	}
}

func TestReduceByOnStrings(t *testing.T) {
	// The WordCount core: split, pair, reduce by word.
	d := testDriver(t)
	src := &core.Operator{Kind: core.KindCollectionSource, Params: core.Params{Collection: []any{"a b a", "b a"}}}
	split := &core.Operator{Kind: core.KindFlatMap, UDF: core.UDFs{FlatMap: func(q any) []any {
		var out []any
		word := ""
		for _, r := range q.(string) + " " {
			if r == ' ' {
				if word != "" {
					out = append(out, core.KV{Key: word, Value: int64(1)})
				}
				word = ""
			} else {
				word += string(r)
			}
		}
		return out
	}}}
	counts := &core.Operator{Kind: core.KindReduceBy, UDF: core.UDFs{
		Key: func(q any) any { return q.(core.KV).Key },
		Reduce: func(a, b any) any {
			return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
		},
	}}
	got := platformtest.RunChain(t, d, []*core.Operator{src, split, counts})
	m := map[string]int64{}
	for _, q := range got {
		kv := q.(core.KV)
		m[kv.Key.(string)] = kv.Value.(int64)
	}
	if m["a"] != 3 || m["b"] != 2 {
		t.Fatalf("wordcount = %v", m)
	}
}

func TestUnsupportedKindErrors(t *testing.T) {
	d := testDriver(t)
	op := &core.Operator{Kind: core.KindTableSource}
	if _, _, err := platformtest.RunOpErr(d, op, platformtest.CollectionChannel()); err == nil || !strings.Contains(err.Error(), "unsupported operator kind") {
		t.Fatalf("error = %v, want an unsupported-kind error", err)
	}
}

func TestMissingUDFErrors(t *testing.T) {
	d := testDriver(t)
	for _, op := range []*core.Operator{
		{Kind: core.KindMap},
		{Kind: core.KindFilter},
		{Kind: core.KindFlatMap},
	} {
		if _, _, err := platformtest.RunOpErr(d, op, platformtest.CollectionChannel(int64(1))); err == nil {
			t.Errorf("%s without UDF should error", op.Kind)
		}
	}
}
