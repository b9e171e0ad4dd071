package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rheem/internal/telemetry"
	"rheem/internal/xlog"
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
	if st.State != StateSucceeded || st.Attempts != 1 {
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
	id, err := m.Submit(func(ctx context.Context) (any, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Err != "boom" {
		t.Fatalf("status = %+v", st)
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

func TestRetriesWithBackoff(t *testing.T) {
	m := New(Options{Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond})
	defer closeAll(t, m)
	var calls int
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		calls++
		if calls < 3 {
			return nil, Retryable(fmt.Errorf("transient %d", calls))
		}
		return "finally", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateSucceeded || st.Attempts != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestRetriesExhausted(t *testing.T) {
	m := New(Options{Workers: 1, MaxRetries: 1, RetryBackoff: time.Millisecond})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		return nil, Retryable(errors.New("always down"))
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Attempts != 2 {
		t.Fatalf("status = %+v", st)
	}
}

func TestNonRetryableFailsImmediately(t *testing.T) {
	m := New(Options{Workers: 1, MaxRetries: 5, RetryBackoff: time.Millisecond})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		return nil, errors.New("fatal")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed || st.Attempts != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestDeadline(t *testing.T) {
	m := New(Options{Workers: 1, Timeout: 10 * time.Millisecond})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s (want failed on deadline)", st.State)
	}
}

func TestPerJobTimeoutOverride(t *testing.T) {
	m := New(Options{Workers: 1})
	defer closeAll(t, m)
	id, err := m.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, WithTimeout(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateFailed {
		t.Fatalf("state = %s", st.State)
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
	m := New(Options{Workers: 2, QueueDepth: 64, Metrics: reg, Log: xlog.New(slowLog{}, xlog.LevelInfo)})
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
