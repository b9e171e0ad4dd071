package restapi

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"rheem/internal/jobs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// fanoutScript is WordCount with a second collect sink, so the job carries
// more than one terminal stage for the scheduler to spread across the ring.
const fanoutScript = "lines = load 'dfs://words.txt'; " +
	"words = flatmap lines using split; " +
	"counts = reduceby words key wordOf using sum; " +
	"collect counts; collect words;"

// submitJob submits a script asynchronously to one fleet peer and waits for
// the job to succeed.
func submitJob(t *testing.T, addr, script string) string {
	t.Helper()
	resp, raw := wireReq(t, http.MethodPost, "http://"+addr+"/v1/jobs", scriptBody(t, script))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit on %s: %d %s", addr, resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitFleetCond(t, "job "+sub.ID+" succeeded", func() bool {
		resp, raw := wireReq(t, http.MethodGet, "http://"+addr+"/v1/jobs/"+sub.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d %s", sub.ID, resp.StatusCode, raw)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == string(jobs.StateFailed) {
			t.Fatalf("job %s failed: %s", sub.ID, st.Error)
		}
		return st.State == string(jobs.StateSucceeded)
	})
	return sub.ID
}

// remoteSpans walks a stitched trace for dispatch spans of remote stages.
func remoteSpans(sj *trace.SpanJSON) []*trace.SpanJSON {
	if sj == nil {
		return nil
	}
	var out []*trace.SpanJSON
	if sj.Kind == trace.KindRemoteStage {
		if _, ok := sj.Attr("remote_job"); ok {
			out = append(out, sj)
		}
	}
	for _, c := range sj.Children {
		out = append(out, remoteSpans(c)...)
	}
	return out
}

// assertNoDistexecFiles checks that no peer's DFS ever held a distexec/
// file: a stage's data travels inline, so none is listed, and none was
// written and deleted either — Delete leaves a file's block directories
// behind, and no name on disk starts with the sanitized prefix.
func assertNoDistexecFiles(t *testing.T, peers []*fleetPeer) {
	t.Helper()
	for _, p := range peers {
		for _, f := range p.srv.Ctx.DFS.List() {
			if strings.HasPrefix(f, "distexec/") {
				t.Errorf("%s: DFS holds %s", p.addr, f)
			}
		}
		err := filepath.WalkDir(p.srv.Ctx.DFS.Root(), func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasPrefix(d.Name(), "distexec") {
				t.Errorf("%s: DFS directory holds %s", p.addr, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterDistexecCrosscheck is the tentpole acceptance scenario: a
// 2-peer fleet with -cluster-exec runs a multi-stage job submitted to one
// peer, stages execute remotely on the other, the results match the
// single-node answer, the stitched trace attributes the remote work, the
// profile carries the peer's own resource figures, and no peer's DFS ever
// held a distexec file.
func TestClusterDistexecCrosscheck(t *testing.T) {
	peers := startFleetCfg(t, 2, fleetConfig{exec: true})
	a, b := peers[0], peers[1]

	id := submitJob(t, a.addr, fanoutScript)

	// Results are exactly what a single node computes for words.txt.
	resp, raw := wireReq(t, http.MethodGet, "http://"+a.addr+"/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if counts := countsOf(t, rr); counts["a"] != 3 || counts["b"] != 1 || counts["c"] != 1 {
		t.Fatalf("distributed counts = %v, want a=3 b=1 c=1", counts)
	}
	if words := rr.Sinks["words"]; len(words) != 5 {
		t.Fatalf("words sink carries %d quanta, want 5", len(words))
	}

	// The origin dispatched and the other peer executed (its executed_total
	// is labeled with its own advertise address).
	if v := counterOf(a, "rheem_distexec_dispatched_total"); v < 1 {
		t.Fatalf("rheem_distexec_dispatched_total on %s = %g, want >= 1", a.addr, v)
	}
	if v := b.metrics.Counter("rheem_distexec_executed_total", telemetry.L("peer", b.addr)).Value(); v < 1 {
		t.Fatalf("rheem_distexec_executed_total{peer=%s} = %g, want >= 1", b.addr, v)
	}
	if v := counterOf(a, "rheem_distexec_remote_failures_total"); v != 0 {
		t.Errorf("remote failures on a healthy fleet: %g", v)
	}

	// The stitched trace shows the remote stage with the worker's span tree
	// grafted under the dispatch span.
	resp, raw = wireReq(t, http.MethodGet, "http://"+a.addr+"/v1/jobs/"+id+"/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, raw)
	}
	var snap trace.SpanJSON
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	dispatches := remoteSpans(&snap)
	if len(dispatches) < 1 {
		t.Fatalf("stitched trace has no remote-stage dispatch spans: %s", raw)
	}
	stitched := 0
	for _, sp := range dispatches {
		if peer, _ := sp.Attr("peer"); peer != b.addr {
			t.Errorf("dispatch span names peer %q, want %s", peer, b.addr)
		}
		if msg, ok := sp.Attr("stitch_error"); ok {
			t.Errorf("stitching failed: %s", msg)
		}
		if len(sp.Children) > 0 {
			stitched++
		}
	}
	if stitched == 0 {
		t.Error("no dispatch span carries a grafted remote subtree")
	}

	// The profile attributes remote stages to the executing peer.
	resp, raw = wireReq(t, http.MethodGet, "http://"+a.addr+"/v1/jobs/"+id+"/profile", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: %d %s", resp.StatusCode, raw)
	}
	var profile struct {
		Stages []struct {
			Stage  string  `json:"stage"`
			Peer   string  `json:"peer"`
			WallMs float64 `json:"wall_ms"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(raw, &profile); err != nil {
		t.Fatal(err)
	}
	remoteStages := 0
	for _, st := range profile.Stages {
		if st.Peer == b.addr {
			remoteStages++
			if st.WallMs <= 0 {
				t.Errorf("remote stage %s reports no wall time", st.Stage)
			}
		}
	}
	if remoteStages == 0 {
		t.Fatalf("profile attributes no stage to %s: %s", b.addr, raw)
	}

	assertNoDistexecFiles(t, peers)
}

// TestClusterDistexecMetricsSpread is the verify.sh fleet smoke: a 3-peer
// -cluster-exec fleet runs several distinct jobs submitted to one peer, and
// the aggregated /v1/cluster/metrics exposition proves remote executions
// happened on at least two different peers (round-robin placement cycles
// the sorted alive ring).
func TestClusterDistexecMetricsSpread(t *testing.T) {
	peers := startFleetCfg(t, 3, fleetConfig{exec: true})
	a := peers[0]

	// Distinct scripts, so the result cache cannot absorb any of them.
	scripts := []string{
		wordCountScript,
		"lines = load 'dfs://words.txt'; words = flatmap lines using split; collect words;",
		"lines = load 'dfs://words.txt'; collect lines;",
	}
	for _, script := range scripts {
		submitJob(t, a.addr, script)
	}

	resp, raw := wireReq(t, http.MethodGet, "http://"+a.addr+"/v1/cluster/metrics?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster/metrics: %d %s", resp.StatusCode, raw)
	}
	var cm ClusterMetricsResponse
	if err := json.Unmarshal(raw, &cm); err != nil {
		t.Fatal(err)
	}
	if len(cm.Unreachable) != 0 {
		t.Fatalf("unreachable peers during scrape: %v", cm.Unreachable)
	}
	executingPeers := 0
	for _, fam := range cm.Families {
		if fam.Name != "rheem_distexec_executed_total" {
			continue
		}
		for _, series := range fam.Series {
			if series.Value >= 1 {
				executingPeers++
			}
		}
	}
	if executingPeers < 2 {
		t.Fatalf("remote executions on %d peers, want >= 2: %s", executingPeers, raw)
	}
	assertNoDistexecFiles(t, peers)
}

// TestClusterDistexecPeerDeathFallback kills the only remote peer and
// submits immediately: the dispatch fails (or, if suspicion already
// propagated, placement refuses), the stage re-executes locally, and the
// job succeeds with correct results.
func TestClusterDistexecPeerDeathFallback(t *testing.T) {
	peers := startFleetCfg(t, 2, fleetConfig{exec: true})
	a, b := peers[0], peers[1]

	b.kill()
	got := wireRunCounts(t, a.addr)
	if got["a"] != 3 || got["b"] != 1 || got["c"] != 1 {
		t.Fatalf("counts after peer death = %v, want a=3 b=1 c=1", got)
	}
	fails := counterOf(a, "rheem_distexec_remote_failures_total")
	pins := a.metrics.Counter("rheem_distexec_pinned_local_total", telemetry.L("reason", "no-peers")).Value()
	if fails < 1 && pins < 1 {
		t.Errorf("neither a failed dispatch (%g) nor a no-peers pin (%g) recorded", fails, pins)
	}
	assertNoDistexecFiles(t, peers)
}

// TestClusterDistexecOffWithoutFlag: a fleet started without -cluster-exec
// runs every stage where the job was submitted and mounts no worker
// endpoint, so no peer can be handed a fragment.
func TestClusterDistexecOffWithoutFlag(t *testing.T) {
	peers := startFleetCfg(t, 2, fleetConfig{})
	a, b := peers[0], peers[1]

	if got := wireRunCounts(t, a.addr); got["a"] != 3 || got["b"] != 1 || got["c"] != 1 {
		t.Fatalf("counts without -cluster-exec = %v, want a=3 b=1 c=1", got)
	}
	if a.srv.Distexec != nil || b.srv.Distexec != nil {
		t.Fatal("a server without ClusterExec built a stage scheduler")
	}
	for _, p := range peers {
		if v := counterOf(p, "rheem_distexec_dispatched_total"); v != 0 {
			t.Errorf("%s dispatched %g stages", p.addr, v)
		}
	}
	if resp, raw := wireReq(t, http.MethodPost, "http://"+b.addr+"/v1/internal/exec/stage", []byte("{}")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("exec endpoint without -cluster-exec answered %d %s, want 404", resp.StatusCode, raw)
	}
}
