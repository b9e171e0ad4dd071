package distexec

import (
	"context"
	"encoding/json"
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

// testPeer is one side of a loopback pair: a scheduler with its own DFS,
// registry, and HTTP surface mounting the worker endpoints — the same
// surface restapi mounts for -cluster-exec peers.
type testPeer struct {
	s   *Scheduler
	dfs *dfs.Store
	reg *telemetry.Registry
}

func newTestPeer(t *testing.T, inlineLimit int) *testPeer {
	t.Helper()
	store, err := dfs.NewTemp(dfs.Options{})
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
		Advertise:   ln.Addr().String(),
		DFS:         store,
		Registry:    registry,
		Metrics:     metrics,
		Traces:      trace.NewStore(8),
		InlineLimit: inlineLimit,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/exec/stage", s.HandleExecStage)
	mux.HandleFunc("GET /v1/internal/exec/shuffle", s.HandleExecShuffle)
	mux.HandleFunc("DELETE /v1/internal/exec/job/{id}", s.HandleExecDelete)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &testPeer{s: s, dfs: store, reg: metrics}
}

// stubbedFragment builds a dispatch-ready fragment for map -> filter ->
// sink with one external boundary input carrying data.
func stubbedFragment(t *testing.T, origin *testPeer, runID string, data []any) (*Fragment, map[int]*core.Operator, *core.Stage) {
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
	frag, byWire, err := buildFragment(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	frag.Run = runID
	frag.Frag = runID + "-s5-1"
	frag.Origin = origin.s.opts.Advertise
	fetch := func(*core.Operator) ([]any, int64, error) { return data, int64(len(data)), nil }
	iw, err := origin.s.encodeInput(runID, frag, src, m, 0, false, fetch)
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
// HTTP and reads the inline output back — the small-data fast path.
func TestLoopbackInlineExecution(t *testing.T) {
	origin := newTestPeer(t, 1<<20)
	worker := newTestPeer(t, 1<<20)
	frag, byWire, st := stubbedFragment(t, origin, "run-inline", []any{int64(1), int64(2), int64(3), int64(4), int64(5)})

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
	if len(ow.Inline) == 0 || ow.Shuffle != "" {
		t.Fatalf("small output should ship inline, got %+v", ow)
	}
	data, err := origin.s.resolveData(context.Background(), ow.Inline, ow.Shuffle, ow.From)
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

// TestLoopbackShuffleAndGC forces every channel through DFS shuffle files
// (InlineLimit 1) and then garbage-collects the run on both peers.
func TestLoopbackShuffleAndGC(t *testing.T) {
	origin := newTestPeer(t, 1)
	worker := newTestPeer(t, 1)
	const runID = "run-shuffle"
	frag, _, _ := stubbedFragment(t, origin, runID, []any{int64(2), int64(3), int64(4)})

	if frag.Inputs[0].Shuffle == "" || frag.Inputs[0].From != origin.s.opts.Advertise {
		t.Fatalf("over-limit input should ship as a shuffle ref, got %+v", frag.Inputs[0])
	}
	if !origin.dfs.Exists(frag.Inputs[0].Shuffle) {
		t.Fatalf("input shuffle file %s missing on origin", frag.Inputs[0].Shuffle)
	}
	origin.s.noteRun(runID, "")

	resp, err := origin.s.dispatch(context.Background(), worker.s.opts.Advertise, frag, dispatchSpan())
	if err != nil {
		t.Fatal(err)
	}
	origin.s.noteRun(runID, worker.s.opts.Advertise)
	ow := resp.Outs[0]
	if ow.Shuffle == "" || ow.From != worker.s.opts.Advertise {
		t.Fatalf("over-limit output should ship as a shuffle ref, got %+v", ow)
	}
	// The origin's store does not hold the worker's file, so resolveData
	// must stream it over HTTP from the named peer.
	data, err := origin.s.resolveData(context.Background(), nil, ow.Shuffle, ow.From)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedInt64s(t, data); len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Fatalf("shuffled result %v, want [4 6 8]", got)
	}

	origin.s.EndRun(runID)
	for name, store := range map[string]*dfs.Store{"origin": origin.dfs, "worker": worker.dfs} {
		for _, f := range store.List() {
			if strings.HasPrefix(f, "distexec/") {
				t.Errorf("%s leaked shuffle file %s after EndRun", name, f)
			}
		}
	}
	// Unknown runs are a no-op, so the executor can EndRun unconditionally.
	origin.s.EndRun("never-dispatched")
}

// TestWorkerRejectsBadFragments covers the failure ladder's worker rungs:
// undecodable fragments (a port outside the operator table included) and
// unknown platforms answer 4xx and count as exec failures — the origin falls back to local execution on any non-200.
func TestWorkerRejectsBadFragments(t *testing.T) {
	worker := newTestPeer(t, 1<<20)
	addr := worker.s.opts.Advertise

	resp, err := http.Post("http://"+addr+"/v1/internal/exec/stage", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage fragment answered %d, want 400", resp.StatusCode)
	}

	origin := newTestPeer(t, 1<<20)
	frag, _, _ := stubbedFragment(t, origin, "run-bad", []any{int64(1)})
	frag.Platform = "no-such-platform"
	if _, err := origin.s.dispatch(context.Background(), addr, frag, dispatchSpan()); err == nil {
		t.Fatal("dispatch of unknown platform succeeded")
	}
	// An edge onto a port the consumer's kind lacks is undecodable too.
	frag, _, _ = stubbedFragment(t, origin, "run-port", []any{int64(1)})
	frag.Edges[0].Port = -1
	if _, err := origin.s.dispatch(context.Background(), addr, frag, dispatchSpan()); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("dispatch of a port -1 edge: %v, want a 400", err)
	}
	if v := worker.reg.Counter("rheem_distexec_exec_failures_total").Value(); v < 3 {
		t.Errorf("exec_failures_total = %g, want >= 3", v)
	}
}

// TestWorkerKillSwitch: a disabled peer answers 503 so origins fall back.
func TestWorkerKillSwitch(t *testing.T) {
	worker := newTestPeer(t, 1<<20)
	origin := newTestPeer(t, 1<<20)
	frag, _, _ := stubbedFragment(t, origin, "run-off", []any{int64(1)})
	prev := SetDisabled(true)
	defer SetDisabled(prev)
	if _, err := origin.s.dispatch(context.Background(), worker.s.opts.Advertise, frag, dispatchSpan()); err == nil {
		t.Fatal("disabled worker accepted a fragment")
	}
}

// TestRunStagePins covers the dispatch-side refusals: kill switch, no
// peers, and the cost floor all pin local with ok=false and a nil error.
func TestRunStagePins(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Metrics: reg, Advertise: "origin:1"})
	st := pipelineStage([]any{int64(1)})
	fetch := func(*core.Operator) ([]any, int64, error) { return nil, 0, nil }

	pinned := func(reason string) float64 {
		return reg.Counter("rheem_distexec_pinned_local_total", telemetry.L("reason", reason)).Value()
	}
	run := func() bool {
		_, _, ok, err := s.RunStage(context.Background(), "run-pin", st, fetch, 0, nil)
		if err != nil {
			t.Fatalf("RunStage returned an error: %v", err)
		}
		return ok
	}

	prev := SetDisabled(true)
	if run() {
		t.Fatal("kill switch did not pin local")
	}
	SetDisabled(prev)
	if pinned("killswitch") != 1 {
		t.Errorf("killswitch pin count = %g", pinned("killswitch"))
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

// TestShufflePathValidation: the shuffle endpoint only serves the distexec
// namespace.
func TestShufflePathValidation(t *testing.T) {
	worker := newTestPeer(t, 1<<20)
	if err := worker.dfs.WriteLines("secret.txt", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"secret.txt", "distexec/../secret.txt", ""} {
		resp, err := http.Get("http://" + worker.s.opts.Advertise + "/v1/internal/exec/shuffle?path=" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("path %q answered %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + worker.s.opts.Advertise + "/v1/internal/exec/shuffle?path=distexec/none/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing shuffle file answered %d, want 404", resp.StatusCode)
	}
}

// TestStatsWireRoundTrip: a remotely executed stage's record entry has what a
// local one has — per-operator observations once each, its fused chains and
// what its vectorized chains did — after the trip over the wire.
func TestStatsWireRoundTrip(t *testing.T) {
	_, byWire, st := stubbedFragment(t, newTestPeer(t, 1<<20), "run-stats", []any{int64(1)})
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
