package distexec

import (
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/platform/streams"
	"rheem/internal/storage/dfs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// testPeer is one side of a loopback pair: a scheduler with its own
// registry and HTTP surface mounting the worker endpoint — the same surface
// restapi mounts for -cluster-exec peers.
type testPeer struct {
	s   *Scheduler
	reg *telemetry.Registry
}

func newTestPeer(t *testing.T) *testPeer {
	t.Helper()
	store, err := dfs.New(t.TempDir(), dfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	registry := core.NewRegistry()
	if err := registry.Register(streams.New(store)); err != nil {
		t.Fatal(err)
	}
	metrics := telemetry.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{
		Advertise: ln.Addr().String(),
		Registry:  registry,
		Metrics:   metrics,
		Traces:    trace.NewStore(8),
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/exec/stage", s.HandleExecStage)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &testPeer{s: s, reg: metrics}
}

// stubbedFragment builds a dispatch-ready fragment for map -> filter ->
// sink with one external boundary input carrying data.
func stubbedFragment(t *testing.T, origin *testPeer, fragID string, data []any) (*Fragment, map[int]*core.Operator, *core.Stage) {
	t.Helper()
	plan := core.NewPlan("loopback")
	src := plan.NewOperator(core.KindCollectionSource, "src")
	src.Params.Collection = []any{int64(0)} // stand-in; the stage ships without it
	m := plan.NewOperator(core.KindMap, "dbl")
	m.UDF.Map = dblQuantum
	f := plan.NewOperator(core.KindFilter, "big")
	f.UDF.Pred = keepBig
	sink := plan.NewOperator(core.KindCollectionSink, "out")
	plan.Chain(src, m, f, sink)
	st := &core.Stage{
		ID:           5,
		Platform:     "streams",
		Ops:          []*core.Operator{m, f, sink},
		ExecPlan:     &core.ExecPlan{Plan: plan, Assignments: map[*core.Operator]*core.Assignment{}},
		TerminalOuts: []*core.Operator{sink},
	}
	frag, byWire, err := buildFragment(st)
	if err != nil {
		t.Fatal(err)
	}
	frag.Frag = fragID
	frag.Origin = origin.s.opts.Advertise
	fetch := func(*core.Operator) ([]any, int64, error) { return data, int64(len(data)), nil }
	iw, err := encodeInput(src, m, 0, false, fetch)
	if err != nil {
		t.Fatal(err)
	}
	frag.Inputs = append(frag.Inputs, iw)
	return frag, byWire, st
}

func dispatchSpan() *trace.Span {
	return trace.New(trace.KindJob, "loopback").Root()
}

// TestLoopbackInlineExecution ships a fragment with inline input over real
// HTTP and reads the inline output back — the one transport a stage's data
// has.
func TestLoopbackInlineExecution(t *testing.T) {
	origin := newTestPeer(t)
	worker := newTestPeer(t)
	frag, byWire, st := stubbedFragment(t, origin, "frag-inline", []any{int64(1), int64(2), int64(3), int64(4), int64(5)})

	resp, err := origin.s.dispatch(context.Background(), worker.s.opts.Advertise, frag, dispatchSpan())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Frag != frag.Frag || len(resp.Outs) != 1 {
		t.Fatalf("response: frag %q, %d outs", resp.Frag, len(resp.Outs))
	}
	ow := resp.Outs[0]
	if byWire[ow.Op] != st.TerminalOuts[0] {
		t.Fatalf("output keyed to wire id %d, want the sink", ow.Op)
	}
	data, err := decodeInline(ow.Inline)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedInt64s(t, data); len(got) != 4 || got[0] != 4 || got[3] != 10 {
		t.Fatalf("remote result %v, want [4 6 8 10]", got)
	}
	if resp.Stats.RuntimeNs <= 0 {
		t.Errorf("worker reported runtime %d", resp.Stats.RuntimeNs)
	}
	if resp.Stats.InQuanta != 5 {
		t.Errorf("worker reported %d input quanta, want 5", resp.Stats.InQuanta)
	}
	if v := worker.reg.Counter("rheem_distexec_executed_total",
		telemetry.L("peer", worker.s.opts.Advertise)).Value(); v != 1 {
		t.Errorf("executed_total on worker = %g", v)
	}
	if _, ok := worker.s.opts.Traces.Get(frag.Frag); !ok {
		t.Error("worker retained no fragment tracer for stitching")
	}
}

// TestLoopbackLargeInline ships an input and reads back an output that are
// each over 1 MiB encoded, the size that used to divert a stage's data to
// DFS files: data of any size under maxFragmentBytes travels inline, and
// arrives whole.
func TestLoopbackLargeInline(t *testing.T) {
	origin := newTestPeer(t)
	worker := newTestPeer(t)
	const n = 500_000
	data := make([]any, n)
	for i := range data {
		data[i] = int64(i + 1)
	}
	frag, _, _ := stubbedFragment(t, origin, "frag-large", data)
	if size := len(frag.Inputs[0].Inline); size <= 1<<20 {
		t.Fatalf("input encodes to %d bytes, want over 1 MiB", size)
	}

	resp, err := origin.s.dispatch(context.Background(), worker.s.opts.Advertise, frag, dispatchSpan())
	if err != nil {
		t.Fatal(err)
	}
	ow := resp.Outs[0]
	if size := len(ow.Inline); size <= 1<<20 {
		t.Fatalf("output encodes to %d bytes, want over 1 MiB", size)
	}
	out, err := decodeInline(ow.Inline)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling 1..n and keeping what is at least 4 leaves 4, 6, ..., 2n.
	got := sortedInt64s(t, out)
	if len(got) != n-1 || got[0] != 4 || got[n-2] != 2*n {
		t.Fatalf("remote result: %d quanta from %d to %d, want %d from 4 to %d",
			len(got), got[0], got[len(got)-1], n-1, 2*n)
	}
	if resp.Stats.InQuanta != n {
		t.Errorf("worker reported %d input quanta, want %d", resp.Stats.InQuanta, n)
	}
}

// TestWorkerRejectsBadFragments covers the failure ladder's worker rungs:
// undecodable fragments (a port outside the operator table and inline input
// bytes that do not decode included) and unknown platforms answer 4xx and
// count as exec failures — the origin falls back to local execution on any
// non-200.
func TestWorkerRejectsBadFragments(t *testing.T) {
	worker := newTestPeer(t)
	addr := worker.s.opts.Advertise

	resp, err := http.Post("http://"+addr+"/v1/internal/exec/stage", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage fragment answered %d, want 400", resp.StatusCode)
	}

	origin := newTestPeer(t)
	frag, _, _ := stubbedFragment(t, origin, "frag-bad", []any{int64(1)})
	frag.Platform = "no-such-platform"
	if _, err := origin.s.dispatch(context.Background(), addr, frag, dispatchSpan()); err == nil {
		t.Fatal("dispatch of unknown platform succeeded")
	}
	// An edge onto a port the consumer's kind lacks is undecodable too.
	frag, _, _ = stubbedFragment(t, origin, "frag-port", []any{int64(1)})
	frag.Edges[0].Port = -1
	if _, err := origin.s.dispatch(context.Background(), addr, frag, dispatchSpan()); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("dispatch of a port -1 edge: %v, want a 400", err)
	}
	// Inline input bytes that do not decode are the request's fault too: the
	// stream's magic followed by a frame that announces 10 bytes and carries 2.
	frag, _, _ = stubbedFragment(t, origin, "frag-trunc", []any{int64(1)})
	frag.Inputs[0].Inline = append([]byte(core.BinaryQuantaMagic), 10, 1, 2)
	if _, err := origin.s.dispatch(context.Background(), addr, frag, dispatchSpan()); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("dispatch of a truncated inline input: %v, want a 400", err)
	}
	if v := worker.reg.Counter("rheem_distexec_exec_failures_total").Value(); v < 4 {
		t.Errorf("exec_failures_total = %g, want >= 4", v)
	}
}

// TestRunStagePins covers the dispatch-side refusals: no peers and the
// cost floor both pin local with ok=false and a nil error.
func TestRunStagePins(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Metrics: reg, Advertise: "origin:1"})
	st := pipelineStage([]any{int64(1)})
	fetch := func(*core.Operator) ([]any, int64, error) { return nil, 0, nil }

	pinned := func(reason string) float64 {
		return reg.Counter("rheem_distexec_pinned_local_total", telemetry.L("reason", reason)).Value()
	}
	run := func() bool {
		_, _, ok, err := s.RunStage(context.Background(), st, fetch, nil)
		if err != nil {
			t.Fatalf("RunStage returned an error: %v", err)
		}
		return ok
	}

	// No cluster node: nothing to place on.
	if run() {
		t.Fatal("peerless scheduler dispatched")
	}
	if pinned("no-peers") != 1 {
		t.Errorf("no-peers pin count = %g", pinned("no-peers"))
	}

	// Cost floor: estimated work below the floor never pays the round-trip.
	s.opts.MinCostMs = 100
	for _, op := range st.Ops {
		st.ExecPlan.Assignments[op] = &core.Assignment{CostEst: core.CostInterval{LowMs: 1, HighMs: 2, Confidence: 1}}
	}
	if run() {
		t.Fatal("cheap stage dispatched")
	}
	if pinned("cheap") != 1 {
		t.Errorf("cheap pin count = %g", pinned("cheap"))
	}

	// An unfragmentable stage pins with its refusal reason.
	st.Sniffers = map[*core.Operator]func(any){st.Ops[0]: func(any) {}}
	if run() {
		t.Fatal("sniffed stage dispatched")
	}
	if pinned("sniffed") != 1 {
		t.Errorf("sniffed pin count = %g", pinned("sniffed"))
	}
}

// TestStatsWireRoundTrip: a remotely executed stage's record entry has what a
// local one has — per-operator observations once each, its fused chains and
// what its vectorized chains did — after the trip over the wire.
func TestStatsWireRoundTrip(t *testing.T) {
	_, byWire, st := stubbedFragment(t, newTestPeer(t), "frag-stats", []any{int64(1)})
	m, f, sink := st.Ops[0], st.Ops[1], st.Ops[2]
	local := &core.StageStats{
		Stage:   st,
		Runtime: 3 * time.Millisecond,
		Ops: map[*core.Operator]core.OpStats{
			m: {OutCard: 5, Runtime: time.Millisecond}, f: {OutCard: 4, Runtime: time.Millisecond}, sink: {OutCard: 4},
		},
		FusedChains: [][]*core.Operator{{m, f}},
		Vectorized:  []core.VectorChainStats{{Ops: []*core.Operator{m, f}, VecSteps: 2, Batches: 3, Rows: 5, Fallbacks: 1, AggBatches: 2, AggRows: 4}},
	}
	usage := executor.SampleUsage()
	raw, err := json.Marshal(buildStatsWire(local, byWire, usage, usage, time.Millisecond, 5))
	if err != nil {
		t.Fatal(err)
	}
	var w statsWire
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	got := decodeStats(st, byWire, w, "peer:1")
	local.InQuanta, local.Remote = 5, "peer:1"
	if !reflect.DeepEqual(got, local) {
		t.Fatalf("entry after the wire:\n got %+v\nwant %+v\nwire %s", got, local, raw)
	}
}

// TestNilLogIsDisabled: a scheduler built without a logger gets one enabled
// at no level, and a fragment still runs on a peer and comes back.
func TestNilLogIsDisabled(t *testing.T) {
	origin := newTestPeer(t)
	worker := newTestPeer(t)
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if origin.s.opts.Log.Enabled(context.Background(), level) {
			t.Errorf("nil Log builds a logger enabled at %v", level)
		}
	}
	frag, _, _ := stubbedFragment(t, origin, "frag-nil-log", []any{int64(3), int64(4)})
	resp, err := origin.s.dispatch(context.Background(), worker.s.opts.Advertise, frag, dispatchSpan())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Outs) != 1 {
		t.Fatalf("response has %d outputs, want 1", len(resp.Outs))
	}
}
