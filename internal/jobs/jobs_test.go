package jobs

import (
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

func closeAll(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, st.State)
	}
	return st
}

func TestLifecycleSucceeded(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateSucceeded {
		t.Fatalf("status = %+v", st)
	}
	if st.SubmittedAt.IsZero() || st.StartedAt.Before(st.SubmittedAt) || st.FinishedAt.Before(st.StartedAt) {
		t.Fatalf("timestamps out of order: %+v", st)
	}
	res, err := m.Result(id)
	if err != nil || res != 42 {
		t.Fatalf("result = %v, %v", res, err)
	}
}

func TestLifecycleFailed(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	boom := errors.New("boom")
	var calls atomic.Int32
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Err != "boom" {
		t.Fatalf("status = %+v", st)
	}
	// A failing job runs exactly once: its error is its outcome.
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
	if _, err := m.Result(id); !errors.Is(err, boom) {
		t.Fatalf("result err = %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{Workers: 1, QueueDepth: 2, Metrics: reg})
	gate := make(chan struct{})
	blocked := make(chan struct{}, 16)
	runner := func(ctx context.Context) (any, error) {
		blocked <- struct{}{}
		select {
		case <-gate:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// First job occupies the worker; wait until it is actually running so
	// the queue occupancy below is deterministic.
	running, err := m.Submit(runner)
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	var admitted []string
	admitted = append(admitted, running)
	for i := 0; i < 2; i++ {
		id, err := m.Submit(runner)
		if err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
		admitted = append(admitted, id)
	}
	if _, err := m.Submit(runner); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if got := reg.Counter("rheem_jobs_rejected_total").Value(); got != 1 {
		t.Fatalf("rejected counter = %v", got)
	}
	close(gate)
	for _, id := range admitted {
		if st := waitTerminal(t, m, id); st.State != StateSucceeded {
			t.Fatalf("job %s = %+v", id, st)
		}
	}
	if got := reg.Counter("rheem_jobs_total", telemetry.L("state", "succeeded")).Value(); got != 3 {
		t.Fatalf("succeeded counter = %v", got)
	}
	if got := reg.Histogram("rheem_job_duration_seconds", nil).Count(); got != 3 {
		t.Fatalf("latency histogram count = %v", got)
	}
	closeAll(t, m)
}

func TestCancelQueued(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	defer close(gate)
	blocked := make(chan struct{}, 1)
	if _, err := m.Submit(func(ctx context.Context) (any, error) {
		blocked <- struct{}{}
		<-gate
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		t.Error("cancelled queued job must not run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateCancelled {
		t.Fatalf("state = %s", st.State)
	}
	if err := m.Cancel(id); !errors.Is(err, ErrAlreadyFinished) {
		t.Fatalf("second cancel = %v", err)
	}
}

func TestCancelRunning(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	started := make(chan struct{})
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateCancelled {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := m.Result(id); !errors.Is(err, context.Canceled) {
		t.Fatalf("result err = %v", err)
	}
}

// TestNonRetryableFailsImmediately: every runner error is final. The failing
// job is not run again, not even once its worker has taken the next job.
func TestNonRetryableFailsImmediately(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	var calls atomic.Int32
	failed, err := m.Submit(func(ctx context.Context) (any, error) {
		calls.Add(1)
		return nil, errors.New("fatal")
	})
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.Submit(func(ctx context.Context) (any, error) { return "next", nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, next); st.State != StateSucceeded {
		t.Fatalf("next job: status = %+v", st)
	}
	if st := waitTerminal(t, m, failed); st.State != StateFailed || st.Err != "fatal" {
		t.Fatalf("status = %+v", st)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing runner called %d times, want 1", n)
	}
}

// TestDeadline: the manager gives a job no deadline. A runner that stops at a
// deadline it set itself fails its job: only Cancel and Close cancel one.
func TestDeadline(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		if _, ok := ctx.Deadline(); ok {
			return nil, errors.New("the manager set a deadline")
		}
		ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		defer cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Err != context.DeadlineExceeded.Error() {
		t.Fatalf("status = %+v (want failed on the runner's deadline)", st)
	}
}

func TestTTLEviction(t *testing.T) {
	m := New(Options{Workers: 1, ResultTTL: time.Millisecond})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)
	if n := m.Sweep(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after eviction = %v", err)
	}
	if _, err := m.Result(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("result after eviction = %v", err)
	}
}

func TestSweepKeepsLiveJobs(t *testing.T) {
	m := New(Options{Workers: 1, ResultTTL: time.Millisecond})
	gate := make(chan struct{})
	defer close(gate)
	blocked := make(chan struct{}, 1)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		blocked <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-blocked
	if n := m.Sweep(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("sweep evicted a running job (%d)", n)
	}
	if _, err := m.Get(id); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	m := New(Options{Workers: 2, QueueDepth: 8})
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := m.Submit(func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateSucceeded {
			t.Fatalf("job %s = %s after drain", id, st.State)
		}
	}
	if _, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v", err)
	}
}

func TestCloseAbandonsStuckJobs(t *testing.T) {
	m := New(Options{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	if _, err := m.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-release // ignores ctx: simulates a stuck runner
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); err == nil {
		t.Fatal("close should report the abandoned job")
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{Workers: 4, QueueDepth: 16, Metrics: reg})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	rejected := 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil })
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, ErrQueueFull) {
				rejected++
				return
			}
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			ids = append(ids, id)
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if st := waitTerminal(t, m, id); st.State != StateSucceeded {
			t.Fatalf("job %s = %s", id, st.State)
		}
	}
	// No lost jobs: every submission either got an id or a rejection.
	if len(ids)+rejected != 64 {
		t.Fatalf("accounted for %d of 64 submissions", len(ids)+rejected)
	}
	if got := reg.Counter("rheem_jobs_total", telemetry.L("state", "succeeded")).Value(); got != float64(len(ids)) {
		t.Fatalf("succeeded counter = %v, want %d", got, len(ids))
	}
	closeAll(t, m)
}

// slowLog delays every log line, widening any window between a job's
// terminal transition and what follows it in finishLocked.
type slowLog struct{}

func (slowLog) Write(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond)
	return len(p), nil
}

// TestWaitSeesOutcomeCounted: once Wait returns a terminal job, that job is
// already in rheem_jobs_total under its state — the outcome is recorded
// before the job's done channel closes, so even a slow "job finished" log
// line cannot be seen ahead of the count.
func TestWaitSeesOutcomeCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := New(Options{Workers: 2, QueueDepth: 64, Metrics: reg, Log: slog.New(slog.NewTextHandler(slowLog{}, nil))})
	defer closeAll(t, m)
	gate := make(chan struct{})
	var ids []string
	for i := 0; i < 40; i++ {
		fail := i%3 == 1
		id, err := m.Submit(func(ctx context.Context) (any, error) {
			<-gate
			if fail {
				return nil, errors.New("boom")
			}
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// The last job is still queued behind the two gated workers.
	if err := m.Cancel(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	close(gate)
	seen := map[State]float64{}
	for _, id := range ids {
		st := waitTerminal(t, m, id)
		seen[st.State]++
		if got := reg.Counter("rheem_jobs_total", telemetry.L("state", string(st.State))).Value(); got < seen[st.State] {
			t.Fatalf("after Wait(%s) returned %s, rheem_jobs_total{state=%q} = %v, want >= %v", id, st.State, st.State, got, seen[st.State])
		}
	}
	if seen[StateSucceeded] == 0 || seen[StateFailed] == 0 || seen[StateCancelled] == 0 {
		t.Fatalf("outcomes %v: want every terminal state", seen)
	}
}

// TestRunSpan: a traced job's root holds its queue-wait span and then one run
// span around the runner, which the runner's context carries. A failure is
// written on the run span and on the root, with the terminal state.
func TestRunSpan(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	tr := trace.New("job", "traced")
	var inRunner *trace.Span
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		inRunner = trace.FromContext(ctx)
		return nil, errors.New("boom")
	}, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)
	root := tr.Snapshot()
	if root.Unfinished || len(root.Children) != 2 {
		t.Fatalf("root = %+v, want a finished root with two children", root)
	}
	queue, run := root.Children[0], root.Children[1]
	if queue.Kind != trace.KindQueueWait || queue.Unfinished {
		t.Fatalf("first child = %+v, want a finished %s span", queue, trace.KindQueueWait)
	}
	if run.Kind != trace.KindRun || run.Name != "run" || run.Unfinished || len(run.Children) != 0 {
		t.Fatalf("second child = %+v, want one finished run span", run)
	}
	if inRunner.ID() != run.ID {
		t.Fatalf("runner's context carries span %d, want the run span %d", inRunner.ID(), run.ID)
	}
	if v, _ := run.Attr("error"); v != "boom" {
		t.Errorf("run span error = %q", v)
	}
	if v, _ := root.Attr("state"); v != string(StateFailed) {
		t.Errorf("root state = %q", v)
	}
	if v, _ := root.Attr("error"); v != "boom" {
		t.Errorf("root error = %q", v)
	}
}

// TestCancelledQueuedJobHasNoRunSpan: a job cancelled while queued ends its
// queue-wait span and its root, with the cancelled state, and never opens a
// run span.
func TestCancelledQueuedJobHasNoRunSpan(t *testing.T) {
	m := New(Options{Workers: 1, QueueDepth: 4})
	defer closeAll(t, m)
	gate := make(chan struct{})
	blocked := make(chan struct{})
	if _, err := m.Submit(func(ctx context.Context) (any, error) {
		close(blocked)
		<-gate
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	tr := trace.New("job", "queued")
	id, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, m, id)
	root := tr.Snapshot()
	if root.Unfinished || len(root.Children) != 1 {
		t.Fatalf("root = %+v, want a finished root with one child", root)
	}
	if q := root.Children[0]; q.Kind != trace.KindQueueWait || q.Unfinished {
		t.Fatalf("child = %+v, want a finished %s span", q, trace.KindQueueWait)
	}
	if v, _ := root.Attr("state"); v != string(StateCancelled) {
		t.Errorf("root state = %q", v)
	}
}

// TestNilLogIsDisabled: a nil Options.Log builds a logger enabled at no
// level, and a job still runs through every lifecycle log call.
func TestNilLogIsDisabled(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if m.opts.Log.Enabled(context.Background(), level) {
			t.Errorf("nil Log builds a logger enabled at %v", level)
		}
	}
	id, err := m.Submit(func(context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateSucceeded {
		t.Fatalf("job ended %s (%s)", st.State, st.Err)
	}
}

// lineLog records every write a slog handler makes to it; the text handler
// writes each record whole, in one call.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, string(p))
	return len(p), nil
}

func (l *lineLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *lineLog) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(l, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// lineWith returns the one recorded line holding every fragment.
func lineWith(t *testing.T, lines []string, fragments ...string) string {
	t.Helper()
	var found []string
	for _, line := range lines {
		all := true
		for _, f := range fragments {
			all = all && strings.Contains(line, f)
		}
		if all {
			found = append(found, line)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d lines hold %q, want 1:\n%s", len(found), fragments, strings.Join(lines, ""))
	}
	return found[0]
}

// TestLifecycleLogLines: a job logs its admission, start and finish at INFO,
// each line naming the job, and a submission after Close logs its rejection
// at WARN.
func TestLifecycleLogLines(t *testing.T) {
	var log lineLog
	m := New(Options{Workers: 1, Log: log.logger()})
	id, err := m.Submit(func(context.Context) (any, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, id)
	closeAll(t, m) // the finish line is written after Wait can return
	if _, err := m.Submit(func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	lines := log.snapshot()
	if len(lines) != 4 {
		t.Fatalf("%d log lines, want 4:\n%s", len(lines), strings.Join(lines, ""))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "time=") {
			t.Errorf("line lacks the time key: %q", line)
		}
	}
	lineWith(t, lines, `level=INFO msg="job admitted" job=`+id+" queue_depth=")
	lineWith(t, lines, `level=INFO msg="job started" job=`+id+"\n")
	lineWith(t, lines, `level=INFO msg="job finished" job=`+id+" state=succeeded\n")
	lineWith(t, lines, `level=WARN msg="job rejected" reason=closed`+"\n")
}

// TestFailedJobLogLine: a failure is logged at WARN with its state and its
// error, quoted so that spaces and quotes in the message stay one value.
func TestFailedJobLogLine(t *testing.T) {
	var log lineLog
	m := New(Options{Workers: 1, Log: log.logger()})
	id, err := m.Submit(func(context.Context) (any, error) {
		return nil, errors.New(`boom with spaces and "quotes"`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateFailed {
		t.Fatalf("job ended %s", st.State)
	}
	closeAll(t, m)
	lineWith(t, log.snapshot(),
		`level=WARN msg="job finished" job=`+id+` state=failed error="boom with spaces and \"quotes\""`+"\n")
}

// TestConcurrentJobsLogWholeLines: jobs submitted and run concurrently
// through one logger write whole lines, three per job, none interleaved.
func TestConcurrentJobsLogWholeLines(t *testing.T) {
	var log lineLog
	m := New(Options{Workers: 4, QueueDepth: 128, Log: log.logger()})
	const submitters, perSubmitter = 8, 10
	ids := make(chan string, submitters*perSubmitter)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				id, err := m.Submit(func(context.Context) (any, error) { return nil, nil })
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- id
			}
		}()
	}
	wg.Wait()
	close(ids)
	closeAll(t, m)

	perJob := map[string]int{}
	for _, line := range log.snapshot() {
		if !strings.HasPrefix(line, "time=") || strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("torn log line %q", line)
		}
		_, rest, ok := strings.Cut(line, " job=")
		if !ok {
			t.Fatalf("line names no job: %q", line)
		}
		id, _, _ := strings.Cut(strings.TrimSuffix(rest, "\n"), " ")
		perJob[id]++
	}
	n := 0
	for id := range ids {
		n++
		if perJob[id] != 3 {
			t.Errorf("job %s has %d log lines, want 3", id, perJob[id])
		}
	}
	if n != submitters*perSubmitter || len(perJob) != n {
		t.Errorf("%d jobs submitted, %d named in the log", n, len(perJob))
	}
}
