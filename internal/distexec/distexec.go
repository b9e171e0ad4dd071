// Package distexec is the distributed stage scheduler: it turns a fleet of
// rheem-server peers into one execution engine. When enabled
// (-cluster-exec), the executor offers every top-level stage to the
// scheduler before running it locally; the scheduler serializes the stage
// as a self-contained *plan fragment* — operator subgraph, UDF symbol
// references, scalar parameters, and materialized input channels — and
// ships it to an alive ring peer over POST /v1/internal/exec/stage. Every
// boundary input travels inline in the fragment and every terminal output
// inline in the response, RQB1-encoded; there is no second transport.
//
// The failure ladder is strictly monotone: any refusal or failure —
// unfragmentable stage (loops, sniffed operators, unnameable UDFs,
// process-local sources/sinks), cost floor, no alive peers, dead peer,
// fragment decode error or a fragment over the worker's body cap, remote
// execution error, timeout — degrades to local execution of that stage.
// Remote execution is an optimization, never a correctness dependency.
//
// Remote stages carry trace propagation: the origin's dispatch span
// (trace.KindRemoteStage) records the peer and the fragment id, the worker
// opens its own tracer linked back via SetRemoteParent, and the origin's
// stitched trace grafts the worker's span tree under the dispatch span —
// the same mechanism routed jobs use. Worker-measured CPU/alloc/bytes come
// back in the response and flow into the job's resource profile attributed
// to the executing peer.
package distexec

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"rheem/internal/cluster"
	"rheem/internal/core"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

const (
	// dispatchTimeout bounds one remote stage round-trip.
	dispatchTimeout = 60 * time.Second
	// maxFragmentBytes bounds the request body a worker accepts: fragments
	// carry their input data, so the server-wide body cap is too small. A
	// larger fragment is refused and its stage runs on the origin.
	maxFragmentBytes = 256 << 20
)

// peerClient carries fragment dispatches to fleet peers.
var peerClient = &http.Client{}

// Options configure a Scheduler.
type Options struct {
	// Node supplies fleet membership (alive peers) and the self address.
	Node *cluster.Node
	// Advertise overrides the self address (defaults to Node.Self()); unit
	// tests without a cluster node set it directly.
	Advertise string
	// Registry resolves platform drivers on the worker side.
	Registry *core.Registry
	// Metrics receives the rheem_distexec_* family; nil skips instrumentation.
	Metrics *telemetry.Registry
	// Log records dispatch decisions and failures; nil disables logging.
	Log *slog.Logger
	// Traces stores worker-side fragment tracers so the origin can stitch
	// them into the job's distributed trace (served by /v1/internal/trace).
	Traces *trace.Store
	// MinCostMs is the placement floor: stages whose estimated cost sums
	// below it never pay a network round-trip (-cluster-exec-min-cost-ms).
	MinCostMs float64
}

// offLog stands in for a nil Options.Log: its handler is enabled at no
// level, so a disabled call returns before it formats anything.
var offLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// Scheduler is both sides of distributed stage execution: the origin-side
// dispatcher (RunStage, the executor's RemoteStageRunner seam) and the
// worker-side fragment executor (HandleExecStage, mounted by restapi on the
// internal cluster surface).
type Scheduler struct {
	opts Options

	// rr is the round-robin placement cursor over the sorted alive ring.
	rr atomic.Uint64
	// frags numbers this origin's fragments; with the advertise address it
	// makes fragment ids unique fleet-wide.
	frags atomic.Uint64
}

// New creates a Scheduler and documents its metric families.
func New(opts Options) *Scheduler {
	if opts.Advertise == "" && opts.Node != nil {
		opts.Advertise = opts.Node.Self()
	}
	if opts.Log == nil {
		opts.Log = offLog
	}
	opts.Metrics.Help("rheem_distexec_dispatched_total",
		"Stages dispatched to fleet peers for remote execution.")
	opts.Metrics.Help("rheem_distexec_executed_total",
		"Remote stage fragments executed on this peer, labeled with its advertise address.")
	opts.Metrics.Help("rheem_distexec_remote_failures_total",
		"Remote stage dispatches that failed and fell back to local execution.")
	opts.Metrics.Help("rheem_distexec_pinned_local_total",
		"Stages the scheduler kept local, by reason.")
	opts.Metrics.Help("rheem_distexec_exec_failures_total",
		"Received stage fragments whose execution on this peer failed.")
	return &Scheduler{opts: opts}
}

// pinLocal counts one stage the scheduler declined to ship.
func (s *Scheduler) pinLocal(reason string) {
	s.opts.Metrics.Counter("rheem_distexec_pinned_local_total",
		telemetry.L("reason", reason)).Inc()
}
