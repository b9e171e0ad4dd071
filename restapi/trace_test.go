package restapi

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"rheem/internal/jobs"
	"rheem/internal/trace"
)

func jobTrace(t *testing.T, s *Server, id, query string) *trace.SpanJSON {
	t.Helper()
	rec := get(s, "/v1/jobs/"+id+"/trace"+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, rec.Code, rec.Body)
	}
	var sj trace.SpanJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &sj); err != nil {
		t.Fatal(err)
	}
	return &sj
}

func TestJobTraceNativeFormat(t *testing.T) {
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

	sj := jobTrace(t, s, sub.ID, "")
	if sj.Kind != trace.KindJob {
		t.Fatalf("root kind = %q, want %q", sj.Kind, trace.KindJob)
	}
	if sj.Unfinished {
		t.Fatal("root span of a finished job is still open")
	}
	if id, ok := sj.Attr("job_id"); !ok || id != sub.ID {
		t.Fatalf("root job_id attr = %q, %v", id, ok)
	}
	if state, _ := sj.Attr("state"); state != string(jobs.StateSucceeded) {
		t.Fatalf("root state attr = %q", state)
	}
	for _, kind := range []string{
		trace.KindQueueWait, trace.KindRun, trace.KindOptimize,
		trace.KindWave, trace.KindStage, trace.KindOperator,
	} {
		if sj.Find(kind) == nil {
			t.Fatalf("trace has no %s span", kind)
		}
	}
	// The gated script forces streams -> spark, so a channel conversion
	// (collection to an RDD-style channel) must appear in the tree.
	if sj.Find(trace.KindConversion) == nil {
		t.Fatal("trace has no channel-conversion span")
	}
	// Operator spans carry the optimizer's estimate against the observation.
	op := sj.Find(trace.KindOperator)
	if _, ok := op.Attr("observed_card"); !ok {
		t.Fatalf("operator span lacks observed_card: %+v", op)
	}
	if _, ok := op.Attr("estimated_card"); !ok {
		t.Fatalf("operator span lacks estimated_card: %+v", op)
	}
	if _, ok := op.Attr("mismatch_factor"); !ok {
		t.Fatalf("operator span lacks mismatch_factor: %+v", op)
	}
}

// within reports whether child's wall-clock interval is inside parent's,
// tolerating a small epsilon for duration rounding in the export.
func within(parent, child *trace.SpanJSON) bool {
	eps := time.Millisecond
	ps, pe := parent.WallClock()
	cs, ce := child.WallClock()
	return !cs.Before(ps.Add(-eps)) && !ce.After(pe.Add(eps))
}

func TestJobTraceChromeFormat(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	close(release)
	started := time.Now()
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateSucceeded)
	finished := time.Now()

	crec := get(s, "/v1/jobs/"+sub.ID+"/trace?format=chrome")
	if crec.Code != http.StatusOK {
		t.Fatalf("chrome trace: %d %s", crec.Code, crec.Body)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(crec.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	byCat := map[string][]trace.ChromeEvent{}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byCat[ev.Cat] = append(byCat[ev.Cat], ev)
	}
	for _, cat := range []string{trace.KindJob, trace.KindWave, trace.KindStage, trace.KindOperator} {
		if len(byCat[cat]) == 0 {
			t.Fatalf("chrome trace has no %s events (cats: %v)", cat, catNames(byCat))
		}
	}

	// Nesting acceptance: the span tree must encode containment, and the
	// chrome export's timestamps must reproduce it.
	sj := jobTrace(t, s, sub.ID, "")
	for _, wave := range sj.FindAll(trace.KindWave) {
		for _, stage := range wave.FindAll(trace.KindStage) {
			if !within(wave, stage) {
				t.Fatalf("stage %s not inside wave %s", stage.Name, wave.Name)
			}
			for _, op := range stage.FindAll(trace.KindOperator) {
				if !within(stage, op) {
					t.Fatalf("operator %s not inside stage %s", op.Name, stage.Name)
				}
			}
		}
	}
	// The job span's duration must fit the observed wall-clock window.
	job := byCat[trace.KindJob][0]
	wall := finished.Sub(started)
	if dur := time.Duration(job.Dur) * time.Microsecond; dur > wall+time.Second {
		t.Fatalf("job span %v exceeds wall clock %v", dur, wall)
	}
	if ts := time.UnixMicro(job.Ts); ts.Before(started.Add(-time.Second)) || ts.After(finished) {
		t.Fatalf("job span start %v outside [%v, %v]", ts, started, finished)
	}
	// Chrome nests by (tid, time containment): any two events sharing a
	// lane must be nested or disjoint, never partially overlapping.
	for i, a := range events {
		for _, b := range events[i+1:] {
			if a.Tid != b.Tid {
				continue
			}
			aEnd, bEnd := a.Ts+a.Dur, b.Ts+b.Dur
			disjoint := aEnd <= b.Ts || bEnd <= a.Ts
			nested := (a.Ts <= b.Ts && bEnd <= aEnd) || (b.Ts <= a.Ts && aEnd <= bEnd)
			if !disjoint && !nested {
				t.Fatalf("events %q and %q partially overlap on lane %d", a.Name, b.Name, a.Tid)
			}
		}
	}
}

func catNames(byCat map[string][]trace.ChromeEvent) []string {
	out := make([]string, 0, len(byCat))
	for cat := range byCat {
		out = append(out, cat)
	}
	return out
}

func TestJobTraceNotFoundAndBadFormat(t *testing.T) {
	// TraceCapacity 1: the second submission evicts the first job's trace.
	s, release := gatedServer(t, Options{
		Jobs:          jobs.Options{Workers: 1, QueueDepth: 4},
		TraceCapacity: 1,
	})
	close(release)

	if rec := get(s, "/v1/jobs/nope/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job trace: %d %s", rec.Code, rec.Body)
	}

	var ids []string
	for i := 0; i < 2; i++ {
		rec := postScript(t, s, "/v1/jobs", gatedScript)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, sub.ID, jobs.StateSucceeded)
		ids = append(ids, sub.ID)
	}
	if rec := get(s, "/v1/jobs/"+ids[0]+"/trace"); rec.Code != http.StatusNotFound {
		t.Fatalf("evicted trace: %d %s", rec.Code, rec.Body)
	}
	if rec := get(s, "/v1/jobs/"+ids[1]+"/trace"); rec.Code != http.StatusOK {
		t.Fatalf("retained trace: %d %s", rec.Code, rec.Body)
	}
	if rec := get(s, "/v1/jobs/"+ids[1]+"/trace?format=svg"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad format: %d %s", rec.Code, rec.Body)
	}
}

// TestJobTraceWhileRunning exercises the in-flight snapshot path: a gated
// job's trace is served with the root span flagged unfinished.
func TestJobTraceWhileRunning(t *testing.T) {
	s, release := gatedServer(t, Options{Jobs: jobs.Options{Workers: 1, QueueDepth: 4}})
	rec := postScript(t, s, "/v1/jobs", gatedScript)
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sub.ID, jobs.StateRunning)
	sj := jobTrace(t, s, sub.ID, "")
	if !sj.Unfinished {
		t.Fatal("running job's root span not flagged unfinished")
	}
	close(release)
	waitState(t, s, sub.ID, jobs.StateSucceeded)
}
