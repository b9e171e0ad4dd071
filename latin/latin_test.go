package latin

import (
	"reflect"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/optimizer"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

func TestLexer(t *testing.T) {
	toks, err := lex("lines = load 'x.txt'; -- comment\nn = count lines; z = filter a where col 0 >= 3.5;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if texts[0] != "lines" || texts[1] != "=" || texts[2] != "load" || texts[3] != "x.txt" {
		t.Fatalf("texts = %v", texts[:6])
	}
	if kinds[3] != tokString {
		t.Fatalf("string literal misclassified: %v", kinds[3])
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, ">=") || !strings.Contains(joined, "3.5") {
		t.Fatalf("comparison lexing: %v", joined)
	}
	// Comments vanish.
	if strings.Contains(joined, "comment") {
		t.Fatal("comment leaked into tokens")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("x = 'unterminated"); err == nil {
		t.Fatal("expected unterminated string error")
	}
	if _, err := lex("x = @"); err == nil {
		t.Fatal("expected bad character error")
	}
}

func TestParseWordCountScript(t *testing.T) {
	script, err := Parse(`
		lines = load 'dfs://abstracts.txt';
		words = flatmap lines using splitWords;
		counts = reduceby words key wordOf using sumCounts with platform 'spark';
		collect counts;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(script.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(script.Stmts))
	}
	rb := script.Stmts[2].Expr
	if rb.Op != "reduceby" || rb.KeyUDF != "wordOf" || rb.UDF != "sumCounts" || rb.Platform != "spark" {
		t.Fatalf("reduceby = %+v", rb)
	}
	if script.Stmts[3].Store != "counts" || script.Stmts[3].Target != "" {
		t.Fatalf("collect = %+v", script.Stmts[3])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x = frobnicate y;",
		"x = map y;",        // missing using
		"x = load",          // missing path
		"x = filter y;",     // missing using/where
		"store x;",          // missing path
		"x = join a, b;",    // missing on
		"x = map y using f", // missing semicolon
		"x = repeat 3 over w { y = map w using f; };", // body never assigns w... parse OK, compile error
	}
	for _, src := range cases[:7] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func newExecEnv(t *testing.T) (*core.Registry, *dfs.Store) {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := core.NewRegistry()
	if err := reg.Register(streams.New(store)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spark.NewWithConfig(store, spark.Config{Parallelism: 4, Latency: driverutil.Latency{ContextMs: 0.01, StageMs: 0.01, BarrierMs: 0.01}})); err != nil {
		t.Fatal(err)
	}
	return reg, store
}

func runScript(t *testing.T, reg *core.Registry, store *dfs.Store, src string, udfs *Registry) map[string][]any {
	t.Helper()
	compiled, err := Compile(src, udfs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ep, err := optimizer.Optimize(compiled.Plan, optimizer.Options{
		Registry: reg,
		Resolve:  optimizer.DFSSourceResolver(store),
	})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	ex := &executor.Executor{Registry: reg}
	res, err := ex.Run(ep)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := map[string][]any{}
	for name, sink := range compiled.Sinks {
		data, err := res.SinkData(sink)
		if err != nil {
			t.Fatalf("sink %s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

func TestCompileAndRunWordCount(t *testing.T) {
	reg, store := newExecEnv(t)
	store.WriteLines("abstracts.txt", []string{"a b a", "b a"})

	udfs := NewRegistry()
	udfs.RegisterFlatMap("splitWords", func(q any) []any {
		var out []any
		for _, w := range strings.Fields(q.(string)) {
			out = append(out, core.KV{Key: w, Value: int64(1)})
		}
		return out
	})
	udfs.RegisterKey("wordOf", func(q any) any { return q.(core.KV).Key })
	udfs.RegisterReduce("sumCounts", func(a, b any) any {
		return core.KV{Key: a.(core.KV).Key, Value: a.(core.KV).Value.(int64) + b.(core.KV).Value.(int64)}
	})

	out := runScript(t, reg, store, `
		lines = load 'dfs://abstracts.txt';
		words = flatmap lines using splitWords;
		counts = reduceby words key wordOf using sumCounts;
		collect counts;
	`, udfs)
	got := map[string]int64{}
	for _, q := range out["counts"] {
		kv := q.(core.KV)
		got[kv.Key.(string)] = kv.Value.(int64)
	}
	if !reflect.DeepEqual(got, map[string]int64{"a": 3, "b": 2}) {
		t.Fatalf("counts = %v", got)
	}
}

func TestCompileAndRunSGDLoop(t *testing.T) {
	// Listing 1 of the paper, adapted: a repeat block with sampling of
	// outer data and weight broadcast.
	reg, store := newExecEnv(t)
	udfs := NewRegistry()
	pts := make([]any, 100)
	for i := range pts {
		pts[i] = float64(i%11) - 5
	}
	udfs.RegisterCollection("points", pts)
	udfs.RegisterCollection("initial", []any{3.0})
	var w float64
	readW := func(bc core.BroadcastCtx) { w = bc.Get("weights")[0].(float64) }
	udfs.RegisterMapCtx("computeGradient", readW, func(q any) any { return w - q.(float64) })
	udfs.RegisterReduce("sumGradients", func(a, b any) any { return a.(float64) + b.(float64) })
	udfs.RegisterMapCtx("updateWeights", readW, func(q any) any { return w - 0.1*q.(float64)/10 })

	out := runScript(t, reg, store, `
		points = load collection points;
		cached = cache points;
		weights = load collection initial;
		weights = repeat 25 over weights {
			sampled = sample cached 10 method 'shuffle-first' seed 5;
			gradient = map sampled using computeGradient with broadcast weights;
			gsum = reduce gradient using sumGradients;
			weights = map gsum using updateWeights with broadcast weights;
		};
		collect weights;
	`, udfs)
	final := out["weights"]
	if len(final) != 1 {
		t.Fatalf("weights = %v", final)
	}
	v := final[0].(float64)
	if v < -1.5 || v > 1.5 { // converges toward the mean 0
		t.Fatalf("weight %f did not approach 0", v)
	}
}

func TestCompileLoopWithoutAssignmentFails(t *testing.T) {
	udfs := NewRegistry()
	udfs.RegisterCollection("init", []any{1.0})
	udfs.RegisterMap("f", func(q any) any { return q })
	_, err := Compile(`
		w = load collection init;
		w = repeat 3 over w {
			y = map w using f;
		};
		collect w;
	`, udfs)
	if err == nil || !strings.Contains(err.Error(), "never assigns") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileUnknownReferences(t *testing.T) {
	udfs := NewRegistry()
	cases := []string{
		"x = map nothing using f; collect x;",
		"x = load collection missing; collect x;",
		"y = load 'f.txt'; x = map y using missingUDF; collect x;",
		"y = load 'f.txt'; collect z;",
	}
	for _, src := range cases {
		if _, err := Compile(src, udfs); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
	// No sink at all.
	if _, err := Compile("x = load 'f.txt';", udfs); err == nil {
		t.Error("script without sinks should fail")
	}
}

func TestCompileTableLoadWithPredicate(t *testing.T) {
	udfs := NewRegistry()
	compiled, err := Compile(`
		rows = load table 'pg'.'tax' (0, 2) where col 2 >= 1000;
		collect rows;
	`, udfs)
	if err != nil {
		t.Fatal(err)
	}
	var src *core.Operator
	for _, op := range compiled.Plan.Operators() {
		if op.Kind == core.KindTableSource {
			src = op
		}
	}
	if src == nil {
		t.Fatal("no table source compiled")
	}
	if src.Params.Store != "pg" || src.Params.Table != "tax" {
		t.Fatalf("table = %+v", src.Params)
	}
	if !reflect.DeepEqual(src.Params.Columns, []int{0, 2}) {
		t.Fatalf("columns = %v", src.Params.Columns)
	}
	if src.Params.Where == nil || src.Params.Where.Op != core.PredGe {
		t.Fatalf("where = %v", src.Params.Where)
	}
}

func TestCompileStoreToFile(t *testing.T) {
	reg, store := newExecEnv(t)
	udfs := NewRegistry()
	udfs.RegisterCollection("vals", []any{"x", "y"})
	compiled, err := Compile(`
		v = load collection vals;
		store v 'dfs://out.txt';
	`, udfs)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := optimizer.Optimize(compiled.Plan, optimizer.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&executor.Executor{Registry: reg}).Run(ep); err != nil {
		t.Fatal(err)
	}
	lines, err := store.ReadLines("out.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestCompileAndRunDoWhile(t *testing.T) {
	reg, store := newExecEnv(t)
	udfs := NewRegistry()
	udfs.RegisterCollection("start", []any{100.0})
	udfs.RegisterMap("halve", func(q any) any { return q.(float64) / 2 })
	udfs.RegisterCond("above1", func(round int, current []any) bool {
		return current[0].(float64) > 1
	})
	out := runScript(t, reg, store, `
		v = load collection start;
		v = dowhile over v max 1000 using above1 {
			v = map v using halve;
		};
		collect v;
	`, udfs)
	got := out["v"]
	if len(got) != 1 || got[0].(float64) != 0.78125 {
		t.Fatalf("dowhile result = %v", got)
	}
}

func TestDoWhileUnknownCond(t *testing.T) {
	udfs := NewRegistry()
	udfs.RegisterCollection("s", []any{1.0})
	udfs.RegisterMap("f", func(q any) any { return q })
	_, err := Compile(`
		v = load collection s;
		v = dowhile over v max 5 using missing {
			v = map v using f;
		};
		collect v;
	`, udfs)
	if err == nil || !strings.Contains(err.Error(), "condition UDF") {
		t.Fatalf("err = %v", err)
	}
}

// TestCompileAndRunNestedRepeat: a repeat inside a repeat that reads a dataset
// two scopes up. Each scope imports the name from the one around it, so the
// middle body gets a placeholder of the top-level operator and the inner body
// a placeholder of that placeholder — no reference skips a level.
func TestCompileAndRunNestedRepeat(t *testing.T) {
	reg, store := newExecEnv(t)
	udfs := NewRegistry()
	nine := make([]any, 9)
	for i := range nine {
		nine[i] = int64(i + 1)
	}
	udfs.RegisterCollection("nine", nine)
	udfs.RegisterCollection("one", []any{int64(1)})
	out := runScript(t, reg, store, `
		base = load collection nine;
		w = load collection one;
		w = repeat 2 over w {
			w = repeat 2 over w {
				grown = union w, base;
				w = distinct grown;
			};
		};
		collect w;
	`, udfs)
	if len(out["w"]) != 9 {
		t.Fatalf("w = %v, want the 9 distinct values", out["w"])
	}
}

// --- the digest contract of registered collections ---------------------------

func dcKey(q any) any      { return q.(core.Record)[0] }
func dcFirst(a, b any) any { return a }

const digestScript = `recs = load collection recs;
agg = reduceby recs key dcKey using dcFirst;
collect agg;`

func digestRegistry(data []any) *Registry {
	reg := NewRegistry()
	reg.RegisterKey("dcKey", dcKey)
	reg.RegisterReduce("dcFirst", dcFirst)
	reg.RegisterCollection("recs", data)
	return reg
}

// compiledHashes compiles digestScript and returns the fingerprint of every
// operator by label (nil entries absent).
func compiledHashes(t *testing.T, reg *Registry) map[string]string {
	t.Helper()
	compiled, err := Compile(digestScript, reg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for op, info := range core.FingerprintPlan(compiled.Plan, core.FingerprintOptions{}) {
		out[op.Label] = info.Hash
	}
	return out
}

func digestData(n int) []any {
	data := make([]any, n)
	for i := range data {
		data[i] = core.Record{int64(i % 7), float64(i)}
	}
	return data
}

// TestRegisteredAndFluentCollectionsCollide: a plan compiled from a
// registered collection and a hand-built plan (what the fluent
// LoadCollection produces: no digest on the source) with the same labels,
// UDF names and equal content have equal fingerprints, so either path is
// served the other's cached results.
func TestRegisteredAndFluentCollectionsCollide(t *testing.T) {
	compiled, err := Compile(digestScript, digestRegistry(digestData(300)))
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Plan.Sources()[0].Params.CollectionDigest == "" {
		t.Fatal("Compile did not stamp the registered collection's digest on its source")
	}
	want := core.FingerprintPlan(compiled.Plan, core.FingerprintOptions{})[compiled.Sinks["agg"]]

	p := core.NewPlan("fluent")
	src := p.Add(&core.Operator{Kind: core.KindCollectionSource, Label: "recs",
		Params: core.Params{Collection: digestData(300)}})
	rb := p.Add(&core.Operator{Kind: core.KindReduceBy, Label: "dcFirst",
		UDF: core.UDFs{Key: dcKey, Reduce: dcFirst, Names: "key=dcKey;reduce=dcFirst;"}})
	sink := p.Add(&core.Operator{Kind: core.KindCollectionSink, Label: "agg"})
	p.Chain(src, rb, sink)
	got := core.FingerprintPlan(p, core.FingerprintOptions{})[sink]
	if want == nil || got == nil || want.Hash != got.Hash {
		t.Errorf("registry-built and hand-built plans over equal content differ:\n%v\n%v", want, got)
	}
}

// TestReRegisteringChangesEveryFingerprint: the name is not the identity —
// registering different content under the same name changes the fingerprint
// of the source and of everything downstream of it.
func TestReRegisteringChangesEveryFingerprint(t *testing.T) {
	reg := digestRegistry(digestData(300))
	before := compiledHashes(t, reg)
	if len(before) != 3 {
		t.Fatalf("fingerprinted %d operators, want 3", len(before))
	}
	if again := compiledHashes(t, reg); !reflect.DeepEqual(before, again) {
		t.Error("two compilations over one registration differ")
	}
	changed := digestData(300)
	changed[299] = core.Record{int64(5), -1.0}
	reg.RegisterCollection("recs", changed)
	after := compiledHashes(t, reg)
	for label, h := range before {
		if after[label] == h {
			t.Errorf("%s kept fingerprint %s across a re-registration with different content", label, h)
		}
	}
}

// TestUnencodableRegisteredCollection: a registered collection holding a
// quantum the codec cannot encode compiles and stays out of the fingerprints,
// with everything downstream of it.
func TestUnencodableRegisteredCollection(t *testing.T) {
	reg := digestRegistry([]any{core.Record{int64(1), 1.0}, make(chan int)})
	if got := compiledHashes(t, reg); len(got) != 0 {
		t.Errorf("fingerprinted %v over an un-encodable collection", got)
	}
}

// TestUDFNamesRecorded: every UDF slot Compile fills is named on the
// operator, the roles the label does not carry included.
func TestUDFNamesRecorded(t *testing.T) {
	reg := digestRegistry(digestData(10))
	reg.RegisterKey("other", dcKey)
	compiled, err := Compile(`a = load collection recs;
b = load collection recs;
j = join a, b on dcKey, other;
g = groupby j key other;
collect g;`, reg)
	if err != nil {
		t.Fatal(err)
	}
	names := map[core.Kind]string{}
	for _, op := range compiled.Plan.Operators() {
		names[op.Kind] = op.UDF.Names
	}
	if got, want := names[core.KindJoin], "key=dcKey;keyright=other;"; got != want {
		t.Errorf("join names = %q, want %q", got, want)
	}
	if got, want := names[core.KindGroupBy], "key=other;"; got != want {
		t.Errorf("groupby names = %q, want %q", got, want)
	}
}
