// Package trace is a dependency-free execution-tracing subsystem: a Tracer
// owns one tree of spans describing a single job's causal timeline —
// job -> run -> optimize -> replan-N -> wave-N -> stage -> operator /
// channel-conversion — with start/end timestamps and per-span
// key=value attributes (platform, estimated vs. observed cardinality,
// chosen-plan cost, mismatch factor). The current span is propagated via
// context.Context so the jobs manager, the optimizer, the executor, and
// the progressive reoptimizer all annotate the same tree.
//
// A disabled tracer is represented by nil values: every method on a nil
// *Span or nil *Tracer is a no-op, and the accessors are written so the
// instrumented hot paths add no allocations when tracing is off (see
// BenchmarkDisabledExecutorHotPath).
//
// Finished trees export two ways: a native nested JSON tree (Snapshot)
// and the Chrome trace_event format (ChromeTrace) loadable in
// chrome://tracing or Perfetto.
package trace

import (
	"context"
	"strconv"
	"sync"
	"time"

	"rheem/internal/telemetry"
)

// Span kinds emitted by the system. Instrumentation is free to invent new
// kinds; these constants just keep the emitters consistent.
const (
	KindJob        = "job"
	KindQueueWait  = "queue-wait"
	KindRun        = "run"
	KindOptimize   = "optimize"
	KindReplan     = "replan"
	KindWave       = "wave"
	KindStage      = "stage"
	KindOperator   = "operator"
	KindConversion = "channel-conversion"
	KindLoop       = "loop"
	KindCacheProbe = "cache-probe"
	KindCacheHit   = "cache-hit"
	KindCacheStore = "cache-store"
	// KindCacheRemoteProbe / KindCacheRemoteHit cover the cluster tier: a
	// local cache miss probing the fingerprint's ring owner over HTTP, and
	// the successful fetch that adopted the remote entry locally.
	KindCacheRemoteProbe = "cache-remote-probe"
	KindCacheRemoteHit   = "cache-remote-hit"
	// KindFusedPipeline marks a narrow-operator chain the engine compiled
	// into one single-pass kernel; the span carries the fused op list.
	KindFusedPipeline = "fused-pipeline"
	// KindProxy marks a -cluster-route hop: the origin peer forwarding a
	// submission to the fingerprint's ring owner. Its attrs name the peer
	// and the remote job id, and the serving peer's tree is grafted under
	// it when the origin renders the stitched trace.
	KindProxy = "proxy"
	// KindRemoteStage marks a stage the distributed scheduler dispatched to
	// a fleet peer (-cluster-exec). Its attrs name the peer and the remote
	// fragment id; the worker's span tree is grafted under it when the
	// origin renders the stitched trace — the same mechanism as KindProxy.
	KindRemoteStage = "remote-stage"
)

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer owns one span tree. All mutation goes through the tracer's mutex,
// so concurrent goroutines (parallel stage dispatch) can safely grow
// disjoint subtrees of the same tracer.
type Tracer struct {
	// Metrics, when set, receives a rheem_span_duration_seconds{kind=...}
	// observation for every ended span. Set it before spans start ending.
	Metrics *telemetry.Registry

	mu     sync.Mutex
	nextID int
	root   *Span

	// traceID identifies this tree fleet-wide; parentTrace/parentSpan link
	// a serving peer's tree back to the origin span that caused it (set via
	// SetRemoteParent when a request arrives with propagation headers).
	traceID     string
	parentTrace string
	parentSpan  int
}

// Span is one timed node of the tree. Create children with Start (live
// timing) or AddTimed (attributed, already-known interval); always End a
// live span. All methods are safe on a nil receiver.
type Span struct {
	tracer   *Tracer
	id       int
	name     string
	kind     string
	start    time.Time
	end      time.Time // zero while the span is open
	attrs    []Attr
	children []*Span
}

// New opens a tracer whose root span has the given kind and name.
func New(kind, name string) *Tracer {
	t := &Tracer{traceID: newTraceID()}
	t.root = &Span{tracer: t, id: 1, kind: kind, name: name, start: time.Now()}
	t.nextID = 1
	return t
}

// TraceID returns the tracer's fleet-wide identifier ("" for nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SetRemoteParent links this tree under a span of a remote tracer: the
// serving peer calls it with the trace context extracted from the incoming
// request, and the snapshot then carries the link so the origin can graft
// the tree in place.
func (t *Tracer) SetRemoteParent(traceID string, parentSpan int) {
	if t == nil || traceID == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.parentTrace = traceID
	t.parentSpan = parentSpan
}

// Root returns the tracer's root span (nil for a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// FromContext returns the current span, or nil when the context carries
// none (tracing disabled). It never allocates.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// NewContext returns a context carrying s as the current span. A nil span
// returns ctx unchanged, so disabled traces never grow the context chain.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

type ctxKey struct{}

// ID returns the span's id within its tracer (0 for nil). Ids are assigned
// once at creation, so no lock is needed.
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// Start opens a child span. It is deliberately non-variadic: on a nil
// receiver it returns nil without touching its arguments, so hot paths
// can call it unconditionally (attach attributes with the Set* methods,
// which are equally nil-safe).
func (s *Span) Start(kind, name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	child := &Span{tracer: t, id: t.nextID, kind: kind, name: name, start: time.Now()}
	s.children = append(s.children, child)
	return child
}

// AddTimed records an already-finished child with an externally attributed
// interval (e.g. per-operator shares of a stage runtime). The child's start
// is clamped to its parent's start so attributed spans always nest.
func (s *Span) AddTimed(kind, name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if start.Before(s.start) {
		start = s.start
	}
	if end.Before(start) {
		end = start
	}
	t.nextID++
	child := &Span{tracer: t, id: t.nextID, kind: kind, name: name, start: start, end: end}
	s.children = append(s.children, child)
	t.observeLocked(kind, end.Sub(start))
	return child
}

// End closes the span. It is idempotent; only the first call sets the end
// timestamp and feeds the span-duration histogram.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.end.IsZero() {
		return
	}
	s.end = time.Now()
	t.observeLocked(s.kind, s.end.Sub(s.start))
}

// observeLocked feeds the per-kind span duration histogram; the caller
// holds t.mu.
func (t *Tracer) observeLocked(kind string, d time.Duration) {
	if t.Metrics == nil {
		return
	}
	t.Metrics.Histogram("rheem_span_duration_seconds", nil, telemetry.L("kind", kind)).Observe(d.Seconds())
}

// SetAttr attaches a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(value, 'g', -1, 64))
}

// SpanJSON is the native serialized form of one span: a nested tree with
// wall-clock timestamps and millisecond durations.
type SpanJSON struct {
	ID         int         `json:"id"`
	Kind       string      `json:"kind"`
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationMs float64     `json:"duration_ms"`
	Unfinished bool        `json:"unfinished,omitempty"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Children   []*SpanJSON `json:"children,omitempty"`

	// Root-only linkage: the tracer's fleet-wide id, and — when this tree
	// was produced on behalf of a remote caller — the caller's trace id and
	// parent span id.
	TraceID     string `json:"trace_id,omitempty"`
	ParentTrace string `json:"parent_trace,omitempty"`
	ParentSpan  int    `json:"parent_span,omitempty"`
}

// Snapshot deep-copies the current tree into its serializable form. Open
// spans report a duration up to the snapshot instant and are flagged
// Unfinished, so traces of in-flight jobs render sensibly.
func (t *Tracer) Snapshot() *SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.root.snapshot(time.Now())
	out.TraceID = t.traceID
	out.ParentTrace = t.parentTrace
	out.ParentSpan = t.parentSpan
	return out
}

func (s *Span) snapshot(now time.Time) *SpanJSON {
	end := s.end
	unfinished := false
	if end.IsZero() {
		end, unfinished = now, true
	}
	out := &SpanJSON{
		ID:         s.id,
		Kind:       s.kind,
		Name:       s.name,
		Start:      s.start,
		DurationMs: float64(end.Sub(s.start)) / float64(time.Millisecond),
		Unfinished: unfinished,
	}
	if len(s.attrs) > 0 {
		out.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshot(now))
	}
	return out
}

// Find returns the first span (depth-first) of the given kind, or nil.
// Tests and diagnostics use it; rendering uses Snapshot.
func (sj *SpanJSON) Find(kind string) *SpanJSON {
	if sj == nil {
		return nil
	}
	if sj.Kind == kind {
		return sj
	}
	for _, c := range sj.Children {
		if hit := c.Find(kind); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every span of the given kind, depth-first.
func (sj *SpanJSON) FindAll(kind string) []*SpanJSON {
	if sj == nil {
		return nil
	}
	var out []*SpanJSON
	if sj.Kind == kind {
		out = append(out, sj)
	}
	for _, c := range sj.Children {
		out = append(out, c.FindAll(kind)...)
	}
	return out
}

// Attr returns the value of the named attribute and whether it is present.
func (sj *SpanJSON) Attr(key string) (string, bool) {
	for _, a := range sj.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}
