package distexec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
	"rheem/internal/telemetry"
	"rheem/internal/trace"
)

// The worker side: HTTP handlers mounted on the internal cluster surface.
//
//	POST   /v1/internal/exec/stage       execute a plan fragment
//	GET    /v1/internal/exec/shuffle     stream one shuffle file's bytes
//	DELETE /v1/internal/exec/job/{id}    drop a run's shuffle files

const quantaContentType = "application/x-rheem-quanta"

// execResponse is the worker's answer to one executed fragment.
type execResponse struct {
	Frag  string    `json:"frag"`
	Outs  []outWire `json:"outs"`
	Stats statsWire `json:"stats"`
}

// outWire carries one terminal output channel, inline or as a shuffle ref.
type outWire struct {
	Op      int    `json:"op"`
	Card    int64  `json:"card"`
	Inline  []byte `json:"inline,omitempty"`
	Shuffle string `json:"shuffle,omitempty"`
	From    string `json:"from,omitempty"`
}

// statsWire is the worker's resource and cardinality report, keyed by wire
// operator id. CPU and allocation deltas are the worker's own process
// counters sampled around the fragment — exact for the stage, since the
// worker runs it alone.
type statsWire struct {
	RuntimeNs   int64               `json:"runtime_ns"`
	CPUNs       int64               `json:"cpu_ns"`
	AllocBytes  int64               `json:"alloc_bytes"`
	BytesMoved  int64               `json:"bytes_moved"`
	InQuanta    int64               `json:"in_quanta"`
	Ops         map[int]opStatsWire `json:"ops,omitempty"`
	FusedChains [][]int             `json:"fused_chains,omitempty"`
	Vectorized  []vecChainWire      `json:"vectorized,omitempty"`
}

// vecChainWire is core.VectorChainStats with the chain as wire ids.
type vecChainWire struct {
	Ops        []int `json:"ops"`
	VecSteps   int   `json:"vec_steps"`
	Batches    int64 `json:"batches"`
	Rows       int64 `json:"rows"`
	Fallbacks  int64 `json:"fallbacks"`
	AggBatches int64 `json:"agg_batches,omitempty"`
	AggRows    int64 `json:"agg_rows,omitempty"`
}

type opStatsWire struct {
	OutCard   int64 `json:"out_card"`
	RuntimeNs int64 `json:"runtime_ns"`
}

// HandleExecStage executes one shipped plan fragment and answers with its
// terminal outputs and resource report.
func (s *Scheduler) HandleExecStage(w http.ResponseWriter, r *http.Request) {
	if Disabled() {
		http.Error(w, "distributed execution is disabled on this peer", http.StatusServiceUnavailable)
		return
	}
	// Fragments carry data; the server-wide request cap is far too small.
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxFragmentBytes)
	var frag Fragment
	if err := json.NewDecoder(r.Body).Decode(&frag); err != nil {
		s.execFailure(nil, w, http.StatusBadRequest, "bad fragment: %v", err)
		return
	}
	// The fragment gets its own tracer, linked to the origin's dispatch
	// span and stored under the fragment id so the origin's stitched trace
	// can graft it (served by GET /v1/internal/trace/{frag}).
	tr := trace.New(trace.KindRemoteStage, "fragment:"+frag.Frag)
	tr.Metrics = s.opts.Metrics
	if tid, parent, ok := trace.Extract(r.Header); ok {
		tr.SetRemoteParent(tid, parent)
	}
	root := tr.Root()
	root.SetAttr("origin", frag.Origin)
	root.SetAttr("platform", frag.Platform)
	root.SetAttr("run", frag.Run)
	s.opts.Traces.Put(frag.Frag, tr)
	defer root.End()

	stage, byWire, err := decodeFragment(&frag)
	if err != nil {
		s.execFailure(root, w, http.StatusBadRequest, "fragment decode: %v", err)
		return
	}
	driver, err := s.opts.Registry.Driver(frag.Platform)
	if err != nil {
		s.execFailure(root, w, http.StatusBadRequest, "%v", err)
		return
	}

	before := executor.SampleUsage()
	in := core.NewInputs()
	in.Round = frag.Round
	var inQuanta int64
	for _, iw := range frag.Inputs {
		producer, consumer := byWire[iw.Producer], byWire[iw.Consumer] // checked by decodeFragment
		data, err := s.resolveData(r.Context(), iw.Inline, iw.Shuffle, iw.From)
		if err != nil {
			s.execFailure(root, w, http.StatusBadGateway, "resolving input of op %d: %v", iw.Consumer, err)
			return
		}
		card := iw.Card
		if card < 0 {
			card = int64(len(data))
		}
		inQuanta += int64(len(data))
		ch := core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), card)
		if iw.Broadcast {
			in.SetBroadcast(consumer, producer, ch)
		} else {
			in.SetMain(consumer, iw.Port, ch)
		}
	}

	execSp := root.Start(trace.KindStage, fmt.Sprintf("Stage%d@%s", frag.StageID, frag.Platform))
	execSp.SetAttr("platform", frag.Platform)
	start := time.Now()
	outs, stats, err := safeExecute(driver, stage, in)
	elapsed := time.Since(start)
	after := executor.SampleUsage()
	if err != nil {
		execSp.SetAttr("error", err.Error())
		execSp.End()
		s.execFailure(root, w, http.StatusInternalServerError, "stage execution: %v", err)
		return
	}
	execSp.SetFloat("runtime_ms", float64(elapsed)/float64(time.Millisecond))
	execSp.End()

	resp := execResponse{Frag: frag.Frag, Stats: buildStatsWire(stats, byWire, before, after, elapsed, inQuanta)}
	for _, op := range stage.TerminalOuts {
		ch := outs[op]
		if ch == nil {
			s.execFailure(root, w, http.StatusInternalServerError, "driver produced no output for op %d", wireIDOf(byWire, op))
			return
		}
		ow, err := s.encodeOut(frag.Run, frag.Frag, wireIDOf(byWire, op), ch)
		if err != nil {
			s.execFailure(root, w, http.StatusInternalServerError, "materializing output: %v", err)
			return
		}
		resp.Outs = append(resp.Outs, ow)
	}
	s.opts.Metrics.Counter("rheem_distexec_executed_total",
		telemetry.L("peer", s.opts.Advertise)).Inc()
	s.opts.Log.Debug("fragment executed", "frag", frag.Frag, "origin", frag.Origin,
		"platform", frag.Platform, "runtime_ms", elapsed.Milliseconds())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// execFailure counts, annotates and answers one failed fragment.
func (s *Scheduler) execFailure(root *trace.Span, w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.opts.Metrics.Counter("rheem_distexec_exec_failures_total").Inc()
	root.SetAttr("error", msg)
	s.opts.Log.Warn("fragment execution failed", "error", msg)
	http.Error(w, msg, status)
}

// safeExecute guards the driver call: a panic escaping an engine fails the
// fragment, not the serving process.
func safeExecute(driver core.Driver, stage *core.Stage, in *core.Inputs) (outs map[*core.Operator]*core.Channel, stats *core.StageStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			outs, stats = nil, nil
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return driver.Execute(stage, in)
}

// wireIDOf inverts the wire-id index for one operator.
func wireIDOf(byWire map[int]*core.Operator, op *core.Operator) int {
	for id, o := range byWire {
		if o == op {
			return id
		}
	}
	return -1
}

// encodeOut ships one terminal output back: inline when small, as a local
// shuffle file under the run's namespace otherwise.
func (s *Scheduler) encodeOut(runID, fragID string, wireID int, ch *core.Channel) (outWire, error) {
	ow := outWire{Op: wireID, Card: ch.Card}
	data, err := driverutil.ChannelQuanta(ch)
	if err != nil {
		return ow, err
	}
	if ow.Card < 0 {
		ow.Card = int64(len(data))
	}
	var buf bytes.Buffer
	if err := core.WriteQuantaStream(&buf, data); err != nil {
		return ow, err
	}
	if buf.Len() <= s.opts.InlineLimit || s.opts.DFS == nil {
		ow.Inline = buf.Bytes()
		return ow, nil
	}
	name := fmt.Sprintf("distexec/%s/%s-out-%d", runID, fragID, wireID)
	if err := driverutil.WriteDFSQuanta(s.opts.DFS, name, data); err != nil {
		return ow, err
	}
	ow.Shuffle = name
	ow.From = s.opts.Advertise
	return ow, nil
}

// buildStatsWire folds the driver's stage stats and the worker's usage
// deltas into the wire report.
func buildStatsWire(stats *core.StageStats, byWire map[int]*core.Operator, before, after executor.Usage, elapsed time.Duration, inQuanta int64) statsWire {
	cpu, alloc, codec := after.Since(before)
	w := statsWire{RuntimeNs: int64(elapsed), CPUNs: int64(cpu), AllocBytes: alloc, BytesMoved: codec, InQuanta: inQuanta}
	if stats == nil {
		return w
	}
	if stats.Runtime > 0 {
		w.RuntimeNs = int64(stats.Runtime)
	}
	rev := map[*core.Operator]int{}
	for id, op := range byWire {
		rev[op] = id
	}
	// wireChain translates a chain to wire ids, nil when an operator has none.
	wireChain := func(chain []*core.Operator) []int {
		ids := make([]int, 0, len(chain))
		for _, op := range chain {
			if id, ok := rev[op]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) != len(chain) {
			return nil
		}
		return ids
	}
	for op, os := range stats.Ops {
		if id, ok := rev[op]; ok {
			if w.Ops == nil {
				w.Ops = map[int]opStatsWire{}
			}
			w.Ops[id] = opStatsWire{OutCard: os.OutCard, RuntimeNs: int64(os.Runtime)}
		}
	}
	for _, chain := range stats.FusedChains {
		if ids := wireChain(chain); ids != nil {
			w.FusedChains = append(w.FusedChains, ids)
		}
	}
	for _, v := range stats.Vectorized {
		if ids := wireChain(v.Ops); ids != nil {
			w.Vectorized = append(w.Vectorized, vecChainWire{Ops: ids, VecSteps: v.VecSteps, Batches: v.Batches, Rows: v.Rows,
				Fallbacks: v.Fallbacks, AggBatches: v.AggBatches, AggRows: v.AggRows})
		}
	}
	return w
}

// HandleExecShuffle streams one shuffle file's raw bytes. On-disk DFS
// quanta files are framed binary streams, so the bytes are directly a
// valid core.ReadQuantaStream input on the receiving side.
func (s *Scheduler) HandleExecShuffle(w http.ResponseWriter, r *http.Request) {
	name := dfs.TrimScheme(r.URL.Query().Get("path"))
	if !strings.HasPrefix(name, "distexec/") || strings.Contains(name, "..") {
		http.Error(w, "shuffle paths must live under distexec/", http.StatusBadRequest)
		return
	}
	if s.opts.DFS == nil || !s.opts.DFS.Exists(name) {
		http.Error(w, "no shuffle file "+name, http.StatusNotFound)
		return
	}
	rc, err := s.opts.DFS.Open(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", quantaContentType)
	if _, err := io.Copy(w, rc); err != nil {
		s.opts.Log.Warn("shuffle stream failed", "file", name, "error", err)
	}
}

// HandleExecDelete drops every local shuffle file of one run — the
// origin's end-of-run GC broadcast.
func (s *Scheduler) HandleExecDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	s.deleteRunFiles(id)
	w.WriteHeader(http.StatusNoContent)
}
