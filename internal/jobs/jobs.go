// Package jobs is the asynchronous job service behind restapi's /v1/jobs
// API: a bounded submission queue with admission control, a worker pool
// that drains it, per-job lifecycle tracking (queued -> running ->
// succeeded/failed/cancelled) with timestamps, per-job cancellation and
// deadlines threaded through context.Context, bounded retries with
// exponential backoff for retryable failures, and a TTL-evicting in-memory
// result store.
//
// The manager is payload-agnostic: a Runner produces an arbitrary result
// value, and the caller (restapi) decides how to render it.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rheem/internal/telemetry"
	"rheem/internal/trace"
	"rheem/internal/xlog"
)

// Sentinel errors returned by Manager methods.
var (
	// ErrQueueFull rejects a submission when the bounded queue is saturated
	// (admission control; restapi maps it to 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects submissions after Close began.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound reports an unknown (or TTL-evicted) job id.
	ErrNotFound = errors.New("jobs: unknown job")
	// ErrNotFinished reports a result request for a job still in flight.
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrAlreadyFinished reports a cancel request for a terminal job.
	ErrAlreadyFinished = errors.New("jobs: job already finished")
)

// State is a job's lifecycle state.
type State string

// Lifecycle states: queued -> running -> one of the terminal three.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Runner executes one job. It must honor ctx cancellation promptly; the
// returned value becomes the job's stored result.
type Runner func(ctx context.Context) (any, error)

// retryableError marks an error as worth retrying.
type retryableError struct{ err error }

func (r *retryableError) Error() string { return r.err.Error() }
func (r *retryableError) Unwrap() error { return r.err }

// Retryable wraps err so the manager retries the job (up to MaxRetries)
// with exponential backoff.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err was wrapped by Retryable.
func IsRetryable(err error) bool {
	var r *retryableError
	return errors.As(err, &r)
}

// Options configure a Manager.
type Options struct {
	// QueueDepth bounds the submission queue (jobs admitted but not yet
	// picked up by a worker). Default 64.
	QueueDepth int
	// Workers is the pool size draining the queue. Default 4.
	Workers int
	// ResultTTL evicts terminal jobs (and their results) this long after
	// they finish. Default 10 minutes.
	ResultTTL time.Duration
	// SweepInterval is the eviction cadence. Default ResultTTL/4, at least
	// one second.
	SweepInterval time.Duration
	// MaxRetries re-runs a job whose Runner returned a Retryable error up
	// to this many extra times. Default 0 (no retries).
	MaxRetries int
	// RetryBackoff is the first retry delay; it doubles per attempt.
	// Default 50ms.
	RetryBackoff time.Duration
	// Timeout is the default per-job deadline; 0 means none.
	Timeout time.Duration
	// Metrics receives queue/outcome/latency instrumentation; nil disables.
	Metrics *telemetry.Registry
	// Log receives job lifecycle events (admitted, started, retried,
	// terminal); nil disables logging.
	Log *xlog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.ResultTTL <= 0 {
		o.ResultTTL = 10 * time.Minute
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = o.ResultTTL / 4
		if o.SweepInterval < time.Second {
			o.SweepInterval = time.Second
		}
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// Status is a point-in-time snapshot of a job, safe to serialize.
type Status struct {
	ID          string
	State       State
	SubmittedAt time.Time
	StartedAt   time.Time // zero until running
	FinishedAt  time.Time // zero until terminal
	Attempts    int
	Err         string // non-empty for failed jobs
}

// job is the manager's internal record.
type job struct {
	id      string
	runner  Runner
	timeout time.Duration

	mu          sync.Mutex
	state       State
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	attempts    int
	err         error
	result      any
	cancel      context.CancelFunc // set while running
	cancelReq   bool               // user asked for cancellation
	done        chan struct{}      // closed on terminal transition

	tracer    *trace.Tracer // optional per-job span tree
	queueSpan *trace.Span   // queue-wait span, open from Submit to pickup
}

// Manager owns the queue, the worker pool, the job table, and the janitor.
type Manager struct {
	opts Options

	mu     sync.Mutex
	jobs   map[string]*job
	closed bool
	seq    uint64

	queue    chan *job
	workers  sync.WaitGroup
	janitor  chan struct{} // closed to stop the janitor
	baseCtx  context.Context
	baseStop context.CancelFunc

	mQueueDepth *telemetry.Gauge
	mInFlight   *telemetry.Gauge
	mOutcomes   map[State]*telemetry.Counter
	mRejected   *telemetry.Counter
	mRetries    *telemetry.Counter
	mLatency    *telemetry.Histogram
}

// New starts a manager: its worker pool and TTL janitor run until Close.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		opts:     opts,
		jobs:     map[string]*job{},
		queue:    make(chan *job, opts.QueueDepth),
		janitor:  make(chan struct{}),
		baseCtx:  base,
		baseStop: stop,
	}
	reg := opts.Metrics
	reg.Help("rheem_jobs_queue_depth", "Jobs admitted but not yet picked up by a worker.")
	reg.Help("rheem_jobs_in_flight", "Jobs currently executing.")
	reg.Help("rheem_jobs_total", "Terminal job outcomes by state.")
	reg.Help("rheem_jobs_rejected_total", "Submissions rejected by admission control.")
	reg.Help("rheem_jobs_retries_total", "Job attempts retried after a retryable failure.")
	reg.Help("rheem_job_duration_seconds", "End-to-end job latency (submission to terminal state).")
	m.mQueueDepth = reg.Gauge("rheem_jobs_queue_depth")
	m.mInFlight = reg.Gauge("rheem_jobs_in_flight")
	m.mOutcomes = map[State]*telemetry.Counter{
		StateSucceeded: reg.Counter("rheem_jobs_total", telemetry.L("state", string(StateSucceeded))),
		StateFailed:    reg.Counter("rheem_jobs_total", telemetry.L("state", string(StateFailed))),
		StateCancelled: reg.Counter("rheem_jobs_total", telemetry.L("state", string(StateCancelled))),
	}
	m.mRejected = reg.Counter("rheem_jobs_rejected_total")
	m.mRetries = reg.Counter("rheem_jobs_retries_total")
	m.mLatency = reg.Histogram("rheem_job_duration_seconds", nil)

	for i := 0; i < opts.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	go m.runJanitor()
	return m
}

// SubmitOption tunes one submission.
type SubmitOption func(*job)

// WithTimeout overrides the manager's default per-job deadline.
func WithTimeout(d time.Duration) SubmitOption {
	return func(j *job) { j.timeout = d }
}

// WithTracer attaches a per-job tracer: the manager records a queue-wait
// span, one span per attempt (propagated into the Runner's context), and
// closes the root span with the terminal state when the job finishes.
func WithTracer(tr *trace.Tracer) SubmitOption {
	return func(j *job) { j.tracer = tr }
}

// Submit enqueues a job, returning its id, or ErrQueueFull/ErrClosed when
// admission control rejects it.
func (m *Manager) Submit(runner Runner, opts ...SubmitOption) (string, error) {
	j := &job{
		runner:      runner,
		timeout:     m.opts.Timeout,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(j)
	}
	// Open the queue-wait span before the job becomes visible to workers:
	// once enqueued, a worker may pick it up (and end the span) immediately.
	if j.tracer != nil {
		j.queueSpan = j.tracer.Root().Start(trace.KindQueueWait, "queue-wait")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.mRejected.Inc()
		j.queueSpan.End()
		m.opts.Log.Warn("job rejected", "reason", "closed")
		return "", ErrClosed
	}
	m.seq++
	j.id = fmt.Sprintf("j%d-%s", m.seq, randSuffix())
	// Reserve the queue slot while holding the lock so Close never closes
	// the channel mid-send.
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		m.mRejected.Inc()
		j.queueSpan.End()
		m.opts.Log.Warn("job rejected", "reason", "queue full")
		return "", ErrQueueFull
	}
	m.jobs[j.id] = j
	m.mu.Unlock()
	if j.tracer != nil {
		j.tracer.Root().SetAttr("job_id", j.id)
	}
	m.mQueueDepth.Set(float64(len(m.queue)))
	m.opts.Log.Info("job admitted", "job", j.id, "queue_depth", len(m.queue))
	return j.id, nil
}

func randSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// Get returns a snapshot of the job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
		Attempts:    j.attempts,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Result returns a succeeded job's stored value. It returns ErrNotFinished
// for in-flight jobs, the job's own error for failed jobs, and
// context.Canceled for cancelled ones.
func (m *Manager) Result(id string) (any, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateSucceeded:
		return j.result, nil
	case StateFailed:
		return nil, j.err
	case StateCancelled:
		return nil, context.Canceled
	default:
		return nil, ErrNotFinished
	}
}

// Cancel requests cancellation: a queued job transitions to cancelled
// immediately; a running job has its context cancelled and transitions
// once its Runner returns.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		// Transition under the job lock so a worker dequeueing concurrently
		// sees the terminal state and skips the job.
		j.cancelReq = true
		m.finishLocked(j, StateCancelled, nil, context.Canceled)
		j.mu.Unlock()
		return nil
	case StateRunning:
		j.cancelReq = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		j.mu.Unlock()
		return ErrAlreadyFinished
	}
}

// Wait blocks until the job reaches a terminal state (returning its final
// status) or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return j.status(), ctx.Err()
	}
}

// worker drains the queue until it is closed and empty.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.mQueueDepth.Set(float64(len(m.queue)))
		m.runJob(j)
	}
}

// runJob drives one job through its attempts to a terminal state.
func (m *Manager) runJob(j *job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	j.queueSpan.End()
	m.opts.Log.Info("job started", "job", j.id)
	m.mInFlight.Inc()
	defer m.mInFlight.Dec()

	backoff := m.opts.RetryBackoff
	for {
		j.mu.Lock()
		j.attempts++
		attempt := j.attempts
		j.mu.Unlock()
		runCtx := ctx
		var attSp *trace.Span
		if j.tracer != nil {
			attSp = j.tracer.Root().Start(trace.KindAttempt, "attempt-"+strconv.Itoa(attempt))
			runCtx = trace.NewContext(ctx, attSp)
		}
		result, err := j.runner(runCtx)
		if err != nil {
			attSp.SetAttr("error", err.Error())
		}
		attSp.End()
		if err == nil {
			m.finish(j, StateSucceeded, result, nil)
			return
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			m.finishInterrupted(j, err)
			return
		}
		if !IsRetryable(err) || j.attemptCount() > m.opts.MaxRetries {
			m.finish(j, StateFailed, nil, err)
			return
		}
		m.mRetries.Inc()
		m.opts.Log.Warn("job attempt failed, retrying", "job", j.id, "attempt", attempt, "error", err, "backoff", backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			m.finishInterrupted(j, ctx.Err())
			return
		}
		backoff *= 2
	}
}

// finishInterrupted classifies a context-interrupted job: cancelled when a
// user (or shutdown) cancellation caused it, failed when the deadline did.
func (m *Manager) finishInterrupted(j *job, err error) {
	j.mu.Lock()
	userCancel := j.cancelReq
	j.mu.Unlock()
	if userCancel || errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		m.finish(j, StateCancelled, nil, context.Canceled)
		return
	}
	m.finish(j, StateFailed, nil, fmt.Errorf("deadline exceeded after %d attempt(s): %w", j.attemptCount(), err))
}

func (j *job) attemptCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// finish transitions a job to a terminal state exactly once.
func (m *Manager) finish(j *job, state State, result any, err error) {
	j.mu.Lock()
	m.finishLocked(j, state, result, err)
	j.mu.Unlock()
}

// finishLocked applies the terminal transition; the caller holds j.mu. The
// outcome is counted before done closes, so a waiter that sees the job
// terminal also sees it in rheem_jobs_total.
func (m *Manager) finishLocked(j *job, state State, result any, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.err = err
	j.finishedAt = time.Now()
	m.recordOutcome(state, j.finishedAt.Sub(j.submittedAt))
	close(j.done)
	j.queueSpan.End() // idempotent; covers jobs cancelled while queued
	if j.tracer != nil {
		root := j.tracer.Root()
		root.SetAttr("state", string(state))
		if err != nil {
			root.SetAttr("error", err.Error())
		}
		root.End()
	}
	if state == StateSucceeded {
		m.opts.Log.Info("job finished", "job", j.id, "state", state, "attempts", j.attempts)
	} else {
		m.opts.Log.Warn("job finished", "job", j.id, "state", state, "attempts", j.attempts, "error", err)
	}
}

func (m *Manager) recordOutcome(state State, latency time.Duration) {
	if c := m.mOutcomes[state]; c != nil {
		c.Inc()
	}
	m.mLatency.Observe(latency.Seconds())
}

// runJanitor periodically evicts expired terminal jobs.
func (m *Manager) runJanitor() {
	ticker := time.NewTicker(m.opts.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			m.Sweep(time.Now())
		case <-m.janitor:
			return
		}
	}
}

// Sweep evicts terminal jobs older than ResultTTL at the given instant and
// returns how many it removed. The janitor calls it periodically; tests
// call it directly.
func (m *Manager) Sweep(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	evicted := 0
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Terminal() && now.Sub(j.finishedAt) >= m.opts.ResultTTL
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
			evicted++
		}
	}
	return evicted
}

// Len reports the current job-table size (admitted, in-flight, and
// not-yet-evicted terminal jobs).
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// Close stops admission, drains queued and in-flight jobs until ctx
// expires, then force-cancels whatever is left. It returns nil when every
// admitted job reached a terminal state, or an error counting the jobs
// that were abandoned mid-flight.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()
	close(m.janitor)

	drained := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: abort in-flight runners and cancel whatever is
	// still queued, then give workers a short grace period to observe it.
	m.baseStop()
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		queued := j.state == StateQueued
		if queued {
			j.cancelReq = true
		}
		j.mu.Unlock()
		if queued {
			m.finish(j, StateCancelled, nil, context.Canceled)
		}
	}
	m.mu.Unlock()
	select {
	case <-drained:
	case <-time.After(100 * time.Millisecond):
	}

	abandoned := 0
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			abandoned++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	if abandoned > 0 {
		return fmt.Errorf("jobs: shutdown abandoned %d job(s)", abandoned)
	}
	return nil
}
