package distexec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
)

// Shipping-eligible UDFs must be package-level functions registered in the
// symbol table — the same contract latin.Registry enforces for its library.
func dblQuantum(q any) any     { return q.(int64) * 2 }
func keepBig(q any) bool       { return q.(int64) >= 4 }
func kvKey(q any) any          { return q.(core.KV).Key }
func sumKV(a, b any) any       { return a.(int64) + b.(int64) }
func notRegistered(q any) bool { return q != nil }

func init() {
	core.RegisterUDFSymbol(dblQuantum)
	core.RegisterUDFSymbol(keepBig)
	core.RegisterUDFSymbol(kvKey)
	core.RegisterUDFSymbol(sumKV)
}

// pipelineStage builds a single-platform stage over a fresh plan:
// collection source -> map -> filter -> collection sink.
func pipelineStage(data []any) *core.Stage {
	plan := core.NewPlan("frag-test")
	src := plan.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = data
	m := plan.NewOperator(core.KindMap, "dbl")
	m.UDF.Map = dblQuantum
	f := plan.NewOperator(core.KindFilter, "big")
	f.UDF.Pred = keepBig
	sink := plan.NewOperator(core.KindCollectionSink, "out")
	plan.Chain(src, m, f, sink)
	return &core.Stage{
		ID:           7,
		Platform:     "streams",
		Ops:          []*core.Operator{src, m, f, sink},
		ExecPlan:     &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
		TerminalOuts: []*core.Operator{sink},
	}
}

func execStage(t *testing.T, st *core.Stage) []any {
	t.Helper()
	store, err := dfs.NewTemp(dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, _, err := streams.New(store).Execute(st, core.NewInputs())
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	ch := outs[st.TerminalOuts[0]]
	if ch == nil {
		t.Fatal("no terminal output channel")
	}
	data, err := driverutil.ChannelQuanta(ch)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sortedInt64s(t *testing.T, data []any) []int64 {
	t.Helper()
	out := make([]int64, len(data))
	for i, q := range data {
		v, ok := q.(int64)
		if !ok {
			t.Fatalf("quantum %d is %T, want int64", i, q)
		}
		out[i] = v
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestFragmentRoundTrip ships a whole pipeline stage through the wire
// format — encode, JSON envelope, decode — and proves the rebuilt stage
// computes exactly what the original does.
func TestFragmentRoundTrip(t *testing.T) {
	data := []any{int64(1), int64(2), int64(3), int64(4), int64(5)}
	st := pipelineStage(data)
	if reason := Fragmentable(st); reason != "" {
		t.Fatalf("stage unfragmentable: %s", reason)
	}
	frag, byWire, err := buildFragment(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(frag.Ops) != 4 || len(frag.Stubs) != 0 || len(frag.Terminals) != 1 {
		t.Fatalf("fragment shape: %d ops, %d stubs, %d terminals", len(frag.Ops), len(frag.Stubs), len(frag.Terminals))
	}
	if len(byWire) != 4 {
		t.Fatalf("byWire has %d entries", len(byWire))
	}

	// Through the JSON envelope, as the HTTP surface would carry it.
	raw, err := json.Marshal(frag)
	if err != nil {
		t.Fatal(err)
	}
	// Only top-level stages are offered to the fleet, so a fragment runs
	// outside any loop and names no round.
	if strings.Contains(string(raw), `"round"`) {
		t.Fatalf("fragment envelope carries a loop round: %s", raw)
	}
	var wire Fragment
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}

	rebuilt, remoteWire, err := decodeFragment(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt.Ops) != len(st.Ops) || len(rebuilt.TerminalOuts) != 1 {
		t.Fatalf("rebuilt shape: %d ops, %d terminals", len(rebuilt.Ops), len(rebuilt.TerminalOuts))
	}
	for id, orig := range byWire {
		clone := remoteWire[id]
		if clone == nil {
			t.Fatalf("wire id %d missing on the remote side", id)
		}
		if clone.Kind != orig.Kind || clone.Label != orig.Label {
			t.Fatalf("wire id %d rebuilt as %s/%s, want %s/%s", id, clone.Kind, clone.Label, orig.Kind, orig.Label)
		}
	}

	want := sortedInt64s(t, execStage(t, st))
	got := sortedInt64s(t, execStage(t, rebuilt))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt stage computed %v, original %v", got, want)
	}
	if !reflect.DeepEqual(want, []int64{4, 6, 8, 10}) {
		t.Fatalf("pipeline computed %v", want)
	}
}

// TestFragmentCollectionCodec round-trips mixed-type and empty collection
// payloads through the params codec.
func TestFragmentCollectionCodec(t *testing.T) {
	cases := [][]any{
		{int64(-3), float64(2.5), "text", true},
		{core.KV{Key: "a", Value: int64(1)}, core.KV{Key: "b", Value: int64(2)}},
		{}, // empty literal collection must not decode to a nil placeholder
	}
	for i, data := range cases {
		w, err := encodeParams(core.Params{Collection: data})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		p, err := decodeParams(w)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if p.Collection == nil {
			t.Fatalf("case %d: collection decoded to nil", i)
		}
		if !reflect.DeepEqual(p.Collection, data) {
			t.Fatalf("case %d: got %v, want %v", i, p.Collection, data)
		}
	}
	// A nil collection (placeholder source) must stay nil.
	w, err := encodeParams(core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := decodeParams(w); p.Collection != nil {
		t.Fatal("nil collection became non-nil")
	}
}

// TestFragmentPredicateCodec round-trips a pushed-down predicate.
func TestFragmentPredicateCodec(t *testing.T) {
	pred := &core.Predicate{Col: 2, Op: core.PredGt, Value: int64(41)}
	w, err := encodeParams(core.Params{Where: pred})
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeParams(w)
	if err != nil {
		t.Fatal(err)
	}
	if p.Where == nil || p.Where.Col != 2 || p.Where.Op != core.PredGt || p.Where.Value != int64(41) {
		t.Fatalf("predicate decoded as %+v", p.Where)
	}
}

// TestFragmentableRefusals enumerates the stages that must pin local; each
// reason doubles as the pinned_local metric label the fleet dashboards key
// on, so the strings are part of the contract.
func TestFragmentableRefusals(t *testing.T) {
	mk := func(build func(plan *core.Plan, st *core.Stage)) *core.Stage {
		plan := core.NewPlan("refusal")
		st := &core.Stage{
			Platform: "streams",
			ExecPlan: &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
		}
		build(plan, st)
		return st
	}
	cases := []struct {
		name   string
		stage  *core.Stage
		reason string
	}{
		{"loop pseudo-stage", &core.Stage{Platform: ""}, "loop"},
		{"no exec plan", &core.Stage{Platform: "streams"}, "no-plan"},
		{"loop operator", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindRepeat, "loop")
			st.Ops = []*core.Operator{op}
		}), "loop"},
		{"outer reference", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindCollectionSource, "ref")
			op.Params.Collection = []any{int64(1)}
			op.OuterRef = plan.NewOperator(core.KindMap, "outer")
			st.Ops = []*core.Operator{op}
		}), "outer-ref"},
		{"placeholder source", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindCollectionSource, "placeholder")
			st.Ops = []*core.Operator{op}
		}), "placeholder-source"},
		{"table source", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindTableSource, "t")
			st.Ops = []*core.Operator{op}
		}), "table-source"},
		{"file sink", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindTextFileSink, "f")
			st.Ops = []*core.Operator{op}
		}), "file-sink"},
		{"local file source", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindTextFileSource, "f")
			op.Params.Path = "/var/data/local.txt"
			st.Ops = []*core.Operator{op}
		}), "local-file"},
		{"dfs file source is fine", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindTextFileSource, "f")
			op.Params.Path = "dfs://corpus.txt"
			st.Ops = []*core.Operator{op}
		}), ""},
		{"sniffed operator", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindCollectionSource, "s")
			op.Params.Collection = []any{int64(1)}
			st.Ops = []*core.Operator{op}
			st.Sniffers = map[*core.Operator]func(any){op: func(any) {}}
		}), "sniffed"},
		{"unregistered UDF", mk(func(plan *core.Plan, st *core.Stage) {
			op := plan.NewOperator(core.KindFilter, "f")
			op.UDF.Pred = notRegistered
			st.Ops = []*core.Operator{op}
		}), "udf"},
		{"capture-carrying closure", mk(func(plan *core.Plan, st *core.Stage) {
			threshold := int64(3)
			op := plan.NewOperator(core.KindFilter, "f")
			op.UDF.Pred = func(q any) bool { return q.(int64) > threshold }
			st.Ops = []*core.Operator{op}
		}), "udf"},
	}
	for _, tc := range cases {
		if got := Fragmentable(tc.stage); got != tc.reason {
			t.Errorf("%s: Fragmentable = %q, want %q", tc.name, got, tc.reason)
		}
	}
}

// TestFragmentRefusesUnregisteredUDFEncode exercises the encode-time
// backstop behind Fragmentable: buildFragment itself must refuse symbols
// the peer cannot resolve.
func TestFragmentRefusesUnregisteredUDFEncode(t *testing.T) {
	plan := core.NewPlan("enc")
	op := plan.NewOperator(core.KindFilter, "f")
	op.UDF.Pred = notRegistered
	st := &core.Stage{
		Platform: "streams",
		Ops:      []*core.Operator{op},
		ExecPlan: &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
	}
	if _, _, err := buildFragment(st); err == nil {
		t.Fatal("buildFragment accepted an unregistered UDF")
	}
}

// TestFragmentStubsExternalProducers ships a stage with a boundary input:
// the external producer must appear as a stub with the edge preserved, and
// never as an executable op.
func TestFragmentStubsExternalProducers(t *testing.T) {
	plan := core.NewPlan("stubbed")
	src := plan.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{int64(1)}
	m := plan.NewOperator(core.KindMap, "dbl")
	m.UDF.Map = dblQuantum
	sink := plan.NewOperator(core.KindCollectionSink, "out")
	plan.Chain(src, m, sink)
	st := &core.Stage{
		ID:           3,
		Platform:     "streams",
		Ops:          []*core.Operator{m, sink}, // src lives in an upstream stage
		ExecPlan:     &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
		TerminalOuts: []*core.Operator{sink},
	}
	frag, _, err := buildFragment(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(frag.Ops) != 2 || len(frag.Stubs) != 1 {
		t.Fatalf("fragment shape: %d ops, %d stubs", len(frag.Ops), len(frag.Stubs))
	}
	if frag.Stubs[0].ID != src.ID || len(frag.Stubs[0].UDFs) != 0 {
		t.Fatalf("stub = %+v, want bare op %d", frag.Stubs[0], src.ID)
	}
	rebuilt, byWire, err := decodeFragment(frag)
	if err != nil {
		t.Fatal(err)
	}
	if byWire[src.ID] == nil {
		t.Fatal("stub not rebuilt")
	}
	if got := byWire[m.ID].Inputs()[0]; got != byWire[src.ID] {
		t.Fatalf("edge rebuilt to %v, want the stub", got)
	}
	if rebuilt.Contains(byWire[src.ID]) {
		t.Fatal("stub leaked into the executable op set")
	}
}

// TestQuantaStreamSymmetry pins the assumption the inline path relies on:
// the bytes core.WriteQuantaStream writes, which a fragment's inputs and a
// response's outputs carry, read back as exactly the quanta written.
func TestQuantaStreamSymmetry(t *testing.T) {
	data := []any{int64(1), "two", 3.0}
	var buf bytes.Buffer
	if err := core.WriteQuantaStream(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := core.ReadQuantaStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, data) {
		t.Fatalf("round-trip %v != %v", got, data)
	}
}

// TestDecodeFragmentChecksTheTable: a fragment is checked against the
// operator table before a peer stages it. An edge or boundary input landing
// on a port its consumer's kind does not have, and an op or stub of a kind
// the table does not declare, are decode errors — never a panic in
// Plan.Connect, and never a port so large that wiring it appends nil slots
// until memory runs out.
func TestDecodeFragmentChecksTheTable(t *testing.T) {
	// Edges[0] is src -> dbl (a map), Ops[1] the map.
	cases := map[string]func(f *Fragment){
		"negative port":   func(f *Fragment) { f.Edges[0].Port = -1 },
		"huge port":       func(f *Fragment) { f.Edges[0].Port = 1 << 40 },
		"port 1 on a map": func(f *Fragment) { f.Edges[0].Port = 1 },
		"unknown kind":    func(f *Fragment) { f.Ops[1].Kind = "NoSuchKind" },
		"unknown stub":    func(f *Fragment) { f.Stubs = append(f.Stubs, opWire{ID: 99, Kind: "NoSuchKind"}) },
		"negative input":  func(f *Fragment) { f.Inputs = []inputWire{{Consumer: f.Ops[1].ID, Producer: f.Ops[0].ID, Port: -1}} },
		"huge input port": func(f *Fragment) {
			f.Inputs = []inputWire{{Consumer: f.Ops[1].ID, Producer: f.Ops[0].ID, Port: 1 << 40}}
		},
		"unknown consumer": func(f *Fragment) { f.Inputs = []inputWire{{Consumer: 99, Producer: f.Ops[0].ID}} },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			frag, _, err := buildFragment(pipelineStage([]any{int64(1)}))
			if err != nil {
				t.Fatal(err)
			}
			corrupt(frag)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoding panicked: %v", r)
				}
			}()
			if _, _, err := decodeFragment(frag); err == nil {
				t.Fatal("a fragment outside the operator table decoded")
			}
		})
	}
}

// kindToyScale is an application kind declared by one table entry that
// requires one UDF role; nothing else in the system names it.
const kindToyScale = core.Kind("ToyScale")

func init() {
	core.RegisterKind(kindToyScale, core.KindSpec{In: 1, Out: 1, Needs: []core.UDFNeed{{Role: core.RoleMap}}})
}

// TestToyKindFromOneTableEntry: with one table entry, a new kind gets
// validation (a missing role is the table's error), a fingerprint that
// changes with its UDF, and a fragment round trip that rebinds its UDF.
func TestToyKindFromOneTableEntry(t *testing.T) {
	build := func(fn func(any) any) (*core.Plan, *core.Operator, *core.Operator) {
		p := core.NewPlan("toy")
		src := p.NewOperator(core.KindCollectionSource, "src")
		src.Params.Collection = []any{int64(1), int64(2)}
		toy := p.NewOperator(kindToyScale, "scale")
		toy.UDF.Map = fn
		sink := p.Chain(src, toy, p.NewOperator(core.KindCollectionSink, "out"))
		return p, toy, sink
	}

	p, toy, _ := build(nil)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), toy.String()+" lacks a map UDF") {
		t.Fatalf("Validate = %v, want the table's missing-map error", err)
	}

	hash := func(fn func(any) any) string {
		p, _, sink := build(fn)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return core.FingerprintPlan(p, core.FingerprintOptions{})[sink].Hash
	}
	if a, b := hash(dblQuantum), hash(kvKey); a == "" || a == b || a != hash(dblQuantum) {
		t.Fatalf("toy fingerprints: %q with dbl (stable: %v), %q with kvKey", a, a == hash(dblQuantum), b)
	}

	p, toy, sink := build(dblQuantum)
	st := &core.Stage{
		ID: 3, Platform: "streams", Ops: p.Operators(),
		ExecPlan:     &core.ExecPlan{Plan: p, Assignments: map[*core.Operator]*core.Assignment{}},
		TerminalOuts: []*core.Operator{sink},
	}
	if reason := Fragmentable(st); reason != "" {
		t.Fatalf("toy stage unfragmentable: %s", reason)
	}
	frag, _, err := buildFragment(st)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(frag)
	if err != nil {
		t.Fatal(err)
	}
	var wire Fragment
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatal(err)
	}
	_, remote, err := decodeFragment(&wire)
	if err != nil {
		t.Fatal(err)
	}
	clone := remote[toy.ID]
	if clone == nil || clone.Kind != kindToyScale || !core.FuncEqual(clone.UDF.Map, dblQuantum) {
		t.Fatalf("toy op rebuilt as %v with map %q", clone, core.FuncSymbol(clone.UDF.Map))
	}
}
