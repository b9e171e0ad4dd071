package restapi

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rheem"
	"rheem/internal/cluster"
	"rheem/internal/jobs"
	"rheem/internal/rescache"
	"rheem/internal/telemetry"
)

func TestMetricsJSONFormat(t *testing.T) {
	s := newTestServer(t)
	if rec := post(t, s, "/v1/run", wordCountScript); rec.Code != http.StatusOK {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	rec := get(s, "/v1/metrics?format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics json: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type = %q", ct)
	}
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.SeriesValue("rheem_jobs_total", `state="succeeded"`); !ok || v < 1 {
		t.Fatalf("rheem_jobs_total succeeded = %v, %v", v, ok)
	}
	if fam := snap.Family("rheem_executor_stages_total"); fam == nil || fam.Help == "" {
		t.Fatalf("executor family lacks help: %+v", fam)
	}
	if rec := get(s, "/v1/metrics?format=xml"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad format: %d %s", rec.Code, rec.Body)
	}
}

func TestHealthJSON(t *testing.T) {
	s := newTestServer(t)
	rec := get(s, "/v1/health")
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "single" || h.UptimeSeconds < 0 {
		t.Fatalf("health payload = %+v", h)
	}
	if h.Advertise != "" || h.PeersAlive != 0 {
		t.Fatalf("single-node health reports cluster fields: %+v", h)
	}
}

// TestAccessLog asserts the debug-level access log carries the request id
// stamped on the response, and that the id header is present regardless of
// log level.
func TestAccessLog(t *testing.T) {
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewWithOptions(ctx, testUDFs(), Options{Log: slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))})
	rec := get(s, "/v1/health")
	reqID := rec.Header().Get(RequestIDHeader)
	if reqID == "" || reqID == "-" {
		t.Fatalf("no request id header: %q", reqID)
	}
	line := buf.String()
	for _, want := range []string{
		"msg=\"http request\"", "request_id=" + reqID,
		"method=GET", "path=/v1/health", "status=200", "duration_ms=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log missing %q:\n%s", want, line)
		}
	}

	// Above debug level the log stays silent but the id header remains.
	var quiet bytes.Buffer
	s2 := NewWithOptions(ctx, testUDFs(), Options{Log: slog.New(slog.NewTextHandler(&quiet, nil))})
	rec = get(s2, "/v1/health")
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Fatal("no request id at info level")
	}
	if strings.Contains(quiet.String(), "http request") {
		t.Fatalf("access log emitted at info level:\n%s", quiet.String())
	}
}

func TestJobProfileEndpoint(t *testing.T) {
	// The gated script pins two platforms, forcing a stage boundary so the
	// downstream stage observes input quanta (a fully-fused single-stage job
	// legitimately reports quanta_in = 0).
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	close(release)
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateSucceeded)

	rec = get(s, "/v1/jobs/"+sub.ID+"/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("profile: %d %s", rec.Code, rec.Body)
	}
	var p rheem.Profile
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) == 0 {
		t.Fatal("profile has no stages")
	}
	// Observed side: the job did real work.
	if p.WallMs <= 0 || p.QuantaOut <= 0 || p.QuantaIn <= 0 {
		t.Fatalf("observed resources empty: wall=%v in=%d out=%d", p.WallMs, p.QuantaIn, p.QuantaOut)
	}
	// Estimated side: the optimizer's cost and the mismatch against it.
	if p.PlanCostMs <= 0 || p.MismatchFactor <= 0 {
		t.Fatalf("estimates missing: cost=%v mismatch=%v", p.PlanCostMs, p.MismatchFactor)
	}
	estStages := 0
	for _, st := range p.Stages {
		if st.Stage == "" || st.Platform == "" {
			t.Fatalf("anonymous stage: %+v", st)
		}
		if len(st.Operators) == 0 {
			t.Fatalf("stage %s has no operators", st.Stage)
		}
		if st.EstCostMs > 0 {
			estStages++
			if st.MismatchFactor <= 0 {
				t.Fatalf("stage %s has estimate but no mismatch: %+v", st.Stage, st)
			}
		}
	}
	if estStages == 0 {
		t.Fatal("no stage carries an optimizer estimate")
	}
	hasCard := false
	for _, st := range p.Stages {
		for _, op := range st.Operators {
			if op.EstimatedCard != "" && op.ObservedCard > 0 {
				hasCard = true
			}
		}
	}
	if !hasCard {
		t.Fatal("no operator pairs observed_card with estimated_card")
	}

	if rec := get(s, "/v1/jobs/nope/profile"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job profile: %d", rec.Code)
	}
}

// TestJobProfileNotFinished pins the profile endpoint's conflict mapping: a
// running job has no profile yet and must answer 409, not 500.
func TestJobProfileNotFinished(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateRunning)
	if rec := get(s, "/v1/jobs/"+sub.ID+"/profile"); rec.Code != http.StatusConflict {
		t.Fatalf("running job profile: %d %s", rec.Code, rec.Body)
	}
	close(release)
	waitState(t, s, sub.ID, jobs.StateSucceeded)
}

// TestMetricsLint is the verify.sh gate: wire up every subsystem the way
// cmd/rheem-server does (cache, cluster node, runtime sampler, jobs, REST),
// exercise the system, and require that every registered rheem_* metric
// carries HELP text.
func TestMetricsLint(t *testing.T) {
	metrics := telemetry.NewRegistry()
	cache := rescache.New(rescache.Options{MaxBytes: 16 << 20, Metrics: metrics})
	ctx, err := rheem.NewContext(rheem.Config{
		FastSimulation: true,
		Metrics:        metrics,
		ResultCache:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Options{
		Advertise:         "127.0.0.1:65000",
		HeartbeatInterval: time.Hour,
		Cache:             cache,
		Metrics:           metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache.SetRemote(node)
	sampler := telemetry.StartRuntimeSampler(metrics, time.Hour)
	defer sampler.Stop()
	s := NewWithOptions(ctx, testUDFs(), Options{
		Jobs:         jobs.Options{Workers: 2, QueueDepth: 4},
		Cluster:      node,
		ClusterRoute: true,
	})
	defer drainServer(t, s)

	// Touch the major paths so lazily-created families exist: a sync run
	// (cold, then cache hit), an async job with trace and profile reads, and
	// a source invalidation.
	for i := 0; i < 2; i++ {
		if rec := post(t, s, "/v1/run", wordCountScript); rec.Code != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := postScript(t, s, "/v1/jobs", wordCountScript)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateSucceeded)
	get(s, "/v1/jobs/"+sub.ID+"/trace")
	get(s, "/v1/jobs/"+sub.ID+"/profile")
	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/cache?source=dfs%3A%2F%2Fwords.txt", nil))
	if del.Code != http.StatusOK {
		t.Fatalf("invalidate: %d %s", del.Code, del.Body)
	}

	if missing := metrics.MissingHelp("rheem_"); len(missing) > 0 {
		t.Fatalf("metrics without HELP text: %v", missing)
	}
}

// TestNilLogIsDisabled: a server built without a logger gets one enabled at
// no level, and a job runs end to end through it.
func TestNilLogIsDisabled(t *testing.T) {
	s := newTestServer(t)
	defer drainServer(t, s)
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if s.Log.Enabled(context.Background(), level) {
			t.Errorf("nil Log builds a logger enabled at %v", level)
		}
	}
	if counts := jobCounts(t, s, submitAndWait(t, s, wordCountScript)); counts["a"] != 3 {
		t.Fatalf("word counts = %v, want a=3", counts)
	}
}
