package restapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rheem"
	"rheem/internal/core"
	"rheem/internal/jobs"
	"rheem/latin"
)

// gatedServer builds a server whose "gate" UDF blocks every quantum until
// the returned release channel is closed, so tests can hold jobs in a
// running state deterministically.
func gatedServer(t *testing.T, opts Options) (*Server, chan struct{}) {
	t.Helper()
	ctx, err := rheem.NewContext(rheem.Config{FastSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.DFS.WriteLines("words.txt", []string{"a b a", "c a"}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	udfs := latin.NewRegistry()
	udfs.RegisterMap("gate", func(q any) any {
		<-release
		return q
	})
	udfs.RegisterMap("boom", func(q any) any { panic("udf exploded") })
	udfs.RegisterFlatMap("split", func(q any) []any {
		fields := strings.Fields(q.(string))
		out := make([]any, len(fields))
		for i, w := range fields {
			out[i] = core.KV{Key: w, Value: int64(1)}
		}
		return out
	})
	return NewWithOptions(ctx, udfs, opts), release
}

const gatedScript = `
	lines = load 'dfs://words.txt';
	gated = map lines using gate with platform 'streams';
	words = flatmap gated using split with platform 'spark';
	collect words;
`

func postScript(t *testing.T, s *Server, path, script string) *httptest.ResponseRecorder {
	t.Helper()
	body := `{"script": ` + mustJSON(t, script) + `}`
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func jobState(t *testing.T, s *Server, id string) JobStatusResponse {
	t.Helper()
	rec := get(s, "/v1/jobs/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %s: %d %s", id, rec.Code, rec.Body)
	}
	var st JobStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, s *Server, id string, want ...jobs.State) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := jobState(t, s, id)
		for _, w := range want {
			if st.State == string(w) {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (last: %s)", id, want, jobState(t, s, id).State)
	return JobStatusResponse{}
}

func TestJobLifecycleOverREST(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 2, QueueDepth: 4}})
	close(release) // no blocking for this test
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.State != "queued" {
		t.Fatalf("submit payload = %+v", sub)
	}

	st := waitState(t, s, sub.ID, jobs.StateSucceeded)
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("finished status = %+v", st)
	}
	// The monitor snapshot (per-job stage timings) rides on the status.
	if st.Monitor == nil || len(st.Monitor.Stages) == 0 {
		t.Fatalf("no monitor snapshot: %+v", st)
	}
	platforms := map[string]bool{}
	for _, stage := range st.Monitor.Stages {
		platforms[stage.Platform] = true
	}
	if !platforms["streams"] || !platforms["spark"] {
		t.Fatalf("snapshot platforms = %v", platforms)
	}

	rec = get(s, "/v1/jobs/"+sub.ID+"/result")
	if rec.Code != http.StatusOK {
		t.Fatalf("result: %d %s", rec.Code, rec.Body)
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Sinks["words"]) != 5 {
		t.Fatalf("sink rows = %d", len(resp.Sinks["words"]))
	}

	// Sink selection: a known name filters, an unknown one is a 400.
	if rec := get(s, "/v1/jobs/"+sub.ID+"/result?sink=words"); rec.Code != http.StatusOK {
		t.Fatalf("result?sink=words: %d", rec.Code)
	}
	if rec := get(s, "/v1/jobs/"+sub.ID+"/result?sink=nope"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown sink: %d %s", rec.Code, rec.Body)
	}
}

// TestAdmissionControlUnderLoad is the acceptance scenario: a 2-worker,
// 4-slot server takes 8 concurrent submissions; at least one gets a 429,
// no submission is lost, and every admitted job reaches a terminal state.
func TestAdmissionControlUnderLoad(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 2, QueueDepth: 4}})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted []string
	rejected := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postScript(t, s, "/v1/jobs", gatedScript)
			mu.Lock()
			defer mu.Unlock()
			switch rec.Code {
			case http.StatusAccepted:
				var sub SubmitResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				admitted = append(admitted, sub.ID)
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("unexpected status %d: %s", rec.Code, rec.Body)
			}
		}()
	}
	wg.Wait()
	if rejected < 1 {
		t.Fatalf("expected at least one 429 (admitted %d)", len(admitted))
	}
	if len(admitted)+rejected != 8 {
		t.Fatalf("lost submissions: %d admitted + %d rejected != 8", len(admitted), rejected)
	}
	close(release)
	for _, id := range admitted {
		st := waitState(t, s, id, jobs.StateSucceeded, jobs.StateFailed, jobs.StateCancelled)
		if st.State != string(jobs.StateSucceeded) {
			t.Fatalf("admitted job %s ended %s (%s)", id, st.State, st.Error)
		}
	}

	// The metrics endpoint reflects the outcome counts and the latency
	// histogram of everything that ran.
	rec := get(s, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf(`rheem_jobs_total{state="succeeded"} %d`, len(admitted)),
		fmt.Sprintf("rheem_jobs_rejected_total %d", rejected),
		fmt.Sprintf("rheem_job_duration_seconds_count %d", len(admitted)),
		"rheem_job_duration_seconds_bucket",
		"rheem_executor_stages_total",
		"rheem_optimizer_optimizations_total",
		"rheem_jobs_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestJobCancellationBetweenStages(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	// Wait until the job is executing its first (gated) stage, then cancel.
	waitState(t, s, sub.ID, jobs.StateRunning)
	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+sub.ID, nil))
	if del.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", del.Code, del.Body)
	}
	// Release the gate: the first stage finishes, and the executor aborts
	// at the stage boundary instead of running the second stage.
	close(release)
	st := waitState(t, s, sub.ID, jobs.StateSucceeded, jobs.StateFailed, jobs.StateCancelled)
	if st.State != string(jobs.StateCancelled) {
		t.Fatalf("state after cancel = %s (%s)", st.State, st.Error)
	}
	// Its result is gone for good, reported as a conflict.
	if rec := get(s, "/v1/jobs/"+sub.ID+"/result"); rec.Code != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d %s", rec.Code, rec.Body)
	}
	// A second cancel is a conflict, too.
	del = httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+sub.ID, nil))
	if del.Code != http.StatusConflict {
		t.Fatalf("second cancel: %d", del.Code)
	}
}

func TestCancelQueuedJobOverREST(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	defer close(release)
	// First job occupies the only worker.
	first := postScript(t, s, "/v1/jobs", gatedScript)
	if first.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", first.Code)
	}
	var running SubmitResponse
	if err := json.Unmarshal(first.Body.Bytes(), &running); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, jobs.StateRunning)
	// Second stays queued; cancel it there.
	second := postScript(t, s, "/v1/jobs", gatedScript)
	var queued SubmitResponse
	if err := json.Unmarshal(second.Body.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+queued.ID, nil))
	if del.Code != http.StatusAccepted {
		t.Fatalf("cancel queued: %d %s", del.Code, del.Body)
	}
	if st := waitState(t, s, queued.ID, jobs.StateCancelled); st.StartedAt != nil {
		t.Fatalf("cancelled queued job reports a start time: %+v", st)
	}
}

func TestSyncRunSharesAdmissionControl(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 1}})
	defer close(release)
	// Saturate: one job running (worker busy in the gate), one queued.
	first := postScript(t, s, "/v1/jobs", gatedScript)
	if first.Code != http.StatusAccepted {
		t.Fatalf("submit running: %d %s", first.Code, first.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(first.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateRunning)
	if rec := postScript(t, s, "/v1/jobs", gatedScript); rec.Code != http.StatusAccepted {
		t.Fatalf("submit queued: %d %s", rec.Code, rec.Body)
	}
	// Both endpoints share the same admission control and must now reject,
	// sending a Retry-After back-off hint with each 429.
	if rec := postScript(t, s, "/v1/run", gatedScript); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("sync /v1/run while saturated: %d %s", rec.Code, rec.Body)
	} else if got := rec.Header().Get("Retry-After"); got != RetryAfterSeconds {
		t.Fatalf("sync 429 Retry-After = %q, want %q", got, RetryAfterSeconds)
	}
	if rec := postScript(t, s, "/v1/jobs", gatedScript); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("async submit while saturated: %d", rec.Code)
	} else if got := rec.Header().Get("Retry-After"); got != RetryAfterSeconds {
		t.Fatalf("async 429 Retry-After = %q, want %q", got, RetryAfterSeconds)
	}
}

func TestRequestBodyCap(t *testing.T) {
	s, release := gatedServer(t, Options{
		Jobs:         jobs.Options{Workers: 1, QueueDepth: 1},
		MaxBodyBytes: 512,
	})
	defer close(release)
	huge := strings.Repeat("x", 2048)
	rec := postScript(t, s, "/v1/run", "lines = load '"+huge+"'; collect lines;")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %s", rec.Code, rec.Body)
	}
	if rec := postScript(t, s, "/v1/jobs", "lines = load '"+huge+"'; collect lines;"); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job body: %d", rec.Code)
	}
}

func TestUnknownSinkIs400(t *testing.T) {
	s := newTestServer(t)
	rec := post(t, s, "/v1/run", "lines = load 'dfs://words.txt'; collect missing;")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown sink: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "missing") {
		t.Fatalf("error does not name the sink: %s", rec.Body)
	}
	// Other compile errors keep their 422.
	if rec := post(t, s, "/v1/run", "x = frobnicate y;"); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("compile error: %d", rec.Code)
	}
}

// TestPanickingUDFFailsJobNotServer submits a script whose UDF panics on a
// parallel engine's worker goroutines; the panic must surface as a failed
// job while the server keeps serving.
func TestPanickingUDFFailsJobNotServer(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	close(release)
	const boomScript = `
		lines = load 'dfs://words.txt';
		bad = map lines using boom with platform 'spark';
		collect bad;
	`
	rec := postScript(t, s, "/v1/jobs", boomScript)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, s, sub.ID, jobs.StateSucceeded, jobs.StateFailed, jobs.StateCancelled)
	if st.State != string(jobs.StateFailed) {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic") || !strings.Contains(st.Error, "udf exploded") {
		t.Fatalf("error does not surface the panic: %q", st.Error)
	}
	// The server survived: a healthy script still runs.
	if rec := postScript(t, s, "/v1/run", gatedScript); rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after UDF panic: %d %s", rec.Code, rec.Body)
	}
}

func TestJobNotFound(t *testing.T) {
	s := newTestServer(t)
	if rec := get(s, "/v1/jobs/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("status of unknown job: %d", rec.Code)
	}
	if rec := get(s, "/v1/jobs/nope/result"); rec.Code != http.StatusNotFound {
		t.Fatalf("result of unknown job: %d", rec.Code)
	}
	del := httptest.NewRecorder()
	s.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/nope", nil))
	if del.Code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: %d", del.Code)
	}
}
