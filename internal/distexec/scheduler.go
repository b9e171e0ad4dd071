package distexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"rheem/internal/core"
	"rheem/internal/executor"
	"rheem/internal/platform/driverutil"
	"rheem/internal/storage/dfs"
	"rheem/internal/trace"
)

// RunStage is the executor's RemoteStageRunner seam: offered a stage, the
// scheduler either ships it to a ring peer and returns its outputs
// (ok=true), or declines (ok=false) and the executor runs the stage
// locally. Every path out of here that is not a successful remote
// execution reports ok=false with a nil error — remote execution degrades,
// it never fails the job.
func (s *Scheduler) RunStage(ctx context.Context, runID string, st *core.Stage, fetch executor.RemoteFetchFn, round int, sp *trace.Span) (map[*core.Operator]*core.Channel, *core.StageStats, bool, error) {
	if Disabled() {
		s.pinLocal("killswitch")
		return nil, nil, false, nil
	}
	if reason := Fragmentable(st); reason != "" {
		s.pinLocal(reason)
		return nil, nil, false, nil
	}
	if s.opts.MinCostMs > 0 && stageCostMs(st) < s.opts.MinCostMs {
		s.pinLocal("cheap")
		return nil, nil, false, nil
	}
	peer, pinned := s.place()
	if pinned != "" {
		s.pinLocal(pinned)
		return nil, nil, false, nil
	}

	frag, byWire, err := buildFragment(st, round)
	if err != nil {
		// Encode refusals (unregistered UDF raced in, un-encodable value):
		// the stage pins local, like any other unfragmentable stage.
		s.opts.Log.Debug("fragment encode refused", "stage", st.ID, "error", err)
		s.pinLocal("encode")
		return nil, nil, false, nil
	}
	frag.Run = runID
	frag.Frag = fmt.Sprintf("%s-s%d-%d", runID, st.ID, s.frags.Add(1))
	frag.Origin = s.opts.Advertise

	// Materialize and attach the stage's boundary inputs. A fetch failure
	// means this process could not produce the input in collection form;
	// the local path gets to try (and report) instead.
	s.noteRun(runID, "") // the run may now own local shuffle files
	for _, op := range st.Ops {
		for port, producer := range op.Inputs() {
			if producer == nil || st.Contains(producer) {
				continue
			}
			iw, err := s.encodeInput(runID, frag, producer, op, port, false, fetch)
			if err != nil {
				s.opts.Log.Debug("input materialization failed", "stage", st.ID, "error", err)
				s.pinLocal("input")
				return nil, nil, false, nil
			}
			frag.Inputs = append(frag.Inputs, iw)
		}
		for _, producer := range op.Broadcasts() {
			if st.Contains(producer) {
				continue
			}
			iw, err := s.encodeInput(runID, frag, producer, op, 0, true, fetch)
			if err != nil {
				s.opts.Log.Debug("broadcast materialization failed", "stage", st.ID, "error", err)
				s.pinLocal("input")
				return nil, nil, false, nil
			}
			frag.Inputs = append(frag.Inputs, iw)
		}
	}

	s.noteRun(runID, peer)
	dspSp := sp.Start(trace.KindRemoteStage, fmt.Sprintf("dispatch:stage-%d", st.ID))
	dspSp.SetAttr("peer", peer)
	dspSp.SetAttr("platform", st.Platform)
	defer dspSp.End()
	s.opts.Metrics.Counter("rheem_distexec_dispatched_total").Inc()

	resp, err := s.dispatch(ctx, peer, frag, dspSp)
	if err != nil {
		s.remoteFailure(dspSp, peer, st, err)
		return nil, nil, false, nil
	}

	outs := map[*core.Operator]*core.Channel{}
	for _, ow := range resp.Outs {
		op := byWire[ow.Op]
		if op == nil {
			s.remoteFailure(dspSp, peer, st, fmt.Errorf("response names unknown op %d", ow.Op))
			return nil, nil, false, nil
		}
		data, err := s.resolveData(ctx, ow.Inline, ow.Shuffle, ow.From)
		if err != nil {
			s.remoteFailure(dspSp, peer, st, fmt.Errorf("fetching output of %s: %w", op, err))
			return nil, nil, false, nil
		}
		card := ow.Card
		if card < 0 {
			card = int64(len(data))
		}
		outs[op] = core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), card)
	}
	for _, t := range st.TerminalOuts {
		if outs[t] == nil {
			s.remoteFailure(dspSp, peer, st, fmt.Errorf("response misses terminal %s", t))
			return nil, nil, false, nil
		}
	}
	stats := decodeStats(st, byWire, resp.Stats, peer)
	// remote_job marks the span for trace stitching: the origin's stitched
	// view grafts the worker's tree (stored under the fragment id) here.
	dspSp.SetAttr("remote_job", frag.Frag)
	dspSp.SetFloat("runtime_ms", float64(stats.Runtime)/float64(time.Millisecond))
	s.opts.Log.Debug("stage executed remotely", "stage", st.ID, "peer", peer, "frag", frag.Frag)
	return outs, stats, true, nil
}

// stageCostMs sums the optimizer's estimated cost over the stage's
// operators.
func stageCostMs(st *core.Stage) float64 {
	var total float64
	for _, op := range st.Ops {
		if a := st.ExecPlan.Assignments[op]; a != nil {
			total += a.CostEst.Geomean()
		}
	}
	return total
}

// place picks the next execution slot round-robin over the sorted alive
// ring (remotes first, self last), so consecutive stages spread across
// every alive peer including this one. Landing on self reports a pin
// reason instead of an address.
func (s *Scheduler) place() (peer, pinned string) {
	if s.opts.Node == nil {
		return "", "no-peers"
	}
	remotes := s.opts.Node.AliveRemotes()
	if len(remotes) == 0 {
		return "", "no-peers"
	}
	sort.Strings(remotes)
	slots := append(remotes, s.opts.Advertise)
	idx := int((s.rr.Add(1) - 1) % uint64(len(slots)))
	if slots[idx] == s.opts.Advertise {
		return "", "round-robin-self"
	}
	return slots[idx], ""
}

// encodeInput materializes one boundary input and attaches it to the
// fragment: inline when the encoded stream is small, as a DFS shuffle file
// under the run's namespace otherwise.
func (s *Scheduler) encodeInput(runID string, frag *Fragment, producer, consumer *core.Operator, port int, broadcast bool, fetch executor.RemoteFetchFn) (inputWire, error) {
	iw := inputWire{Consumer: consumer.ID, Port: port, Producer: producer.ID, Broadcast: broadcast}
	data, card, err := fetch(producer)
	if err != nil {
		return iw, err
	}
	if card < 0 {
		card = int64(len(data))
	}
	iw.Card = card
	var buf bytes.Buffer
	if err := core.WriteQuantaStream(&buf, data); err != nil {
		return iw, err
	}
	if buf.Len() <= s.opts.InlineLimit {
		iw.Inline = buf.Bytes()
		return iw, nil
	}
	if s.opts.DFS == nil {
		return iw, fmt.Errorf("input exceeds inline limit and no DFS store is configured")
	}
	name := fmt.Sprintf("distexec/%s/%s-in-%d", runID, frag.Frag, len(frag.Inputs))
	if err := driverutil.WriteDFSQuanta(s.opts.DFS, name, data); err != nil {
		return iw, err
	}
	iw.Shuffle = name
	iw.From = s.opts.Advertise
	return iw, nil
}

// dispatch POSTs the fragment to the peer and decodes the response.
func (s *Scheduler) dispatch(ctx context.Context, peer string, frag *Fragment, sp *trace.Span) (*execResponse, error) {
	body, err := json.Marshal(frag)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.DispatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+peer+"/v1/internal/exec/stage", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	trace.Inject(req.Header, sp)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("peer answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var er execResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &er, nil
}

// remoteFailure records one failed dispatch; the caller falls back local.
func (s *Scheduler) remoteFailure(sp *trace.Span, peer string, st *core.Stage, err error) {
	s.opts.Metrics.Counter("rheem_distexec_remote_failures_total").Inc()
	sp.SetAttr("error", err.Error())
	s.opts.Log.Warn("remote stage failed, re-executing locally",
		"stage", st.ID, "peer", peer, "error", err)
}

// resolveData materializes channel data shipped by a peer: inline bytes,
// a shuffle file in the local store (peers sharing one DFS directory), or
// an HTTP stream from the writing peer.
func (s *Scheduler) resolveData(ctx context.Context, inline []byte, shuffle, from string) ([]any, error) {
	if len(inline) > 0 {
		data, err := core.ReadQuantaStream(bytes.NewReader(inline))
		if err != nil {
			return nil, err
		}
		if data == nil {
			data = []any{}
		}
		return data, nil
	}
	if shuffle == "" {
		return nil, fmt.Errorf("distexec: channel carries neither inline data nor a shuffle path")
	}
	name := dfs.TrimScheme(shuffle)
	if s.opts.DFS != nil && s.opts.DFS.Exists(name) {
		return driverutil.ReadDFSQuanta(s.opts.DFS, name)
	}
	if from == "" {
		return nil, fmt.Errorf("distexec: shuffle file %s is not local and names no source peer", name)
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.DispatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+from+"/v1/internal/exec/shuffle?path="+url.QueryEscape(name), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shuffle fetch of %s from %s: status %d", name, from, resp.StatusCode)
	}
	data, err := core.ReadQuantaStream(resp.Body)
	if err != nil {
		return nil, err
	}
	if data == nil {
		data = []any{}
	}
	return data, nil
}

// decodeStats rebuilds origin-keyed stage statistics from the worker's
// wire-id-keyed report.
func decodeStats(st *core.Stage, byWire map[int]*core.Operator, w statsWire, peer string) *core.StageStats {
	stats := &core.StageStats{
		Stage:      st,
		Runtime:    time.Duration(w.RuntimeNs),
		Ops:        map[*core.Operator]core.OpStats{},
		CPUTime:    time.Duration(w.CPUNs),
		AllocBytes: w.AllocBytes,
		BytesMoved: w.BytesMoved,
		InQuanta:   w.InQuanta,
		Remote:     peer,
	}
	for id, os := range w.Ops {
		if op := byWire[id]; op != nil {
			stats.Ops[op] = core.OpStats{OutCard: os.OutCard, Runtime: time.Duration(os.RuntimeNs)}
		}
	}
	// originChain translates a chain back, nil when an id is unknown here.
	originChain := func(chain []int) []*core.Operator {
		ops := make([]*core.Operator, 0, len(chain))
		for _, id := range chain {
			if op := byWire[id]; op != nil {
				ops = append(ops, op)
			}
		}
		if len(ops) != len(chain) {
			return nil
		}
		return ops
	}
	for _, chain := range w.FusedChains {
		if ops := originChain(chain); ops != nil {
			stats.FusedChains = append(stats.FusedChains, ops)
		}
	}
	for _, v := range w.Vectorized {
		if ops := originChain(v.Ops); ops != nil {
			stats.Vectorized = append(stats.Vectorized, core.VectorChainStats{Ops: ops, VecSteps: v.VecSteps, Batches: v.Batches, Rows: v.Rows,
				Fallbacks: v.Fallbacks, AggBatches: v.AggBatches, AggRows: v.AggRows})
		}
	}
	return stats
}

// EndRun garbage-collects a run's shuffle files: the local
// distexec/<run>/ namespace, plus a best-effort DELETE to every peer the
// run dispatched to. Unknown runs (nothing ever dispatched) are a no-op,
// so the executor can call it unconditionally — including for cancelled
// jobs, which is exactly when orphaned frame files would otherwise leak.
func (s *Scheduler) EndRun(runID string) {
	s.mu.Lock()
	peers, known := s.runs[runID]
	delete(s.runs, runID)
	s.mu.Unlock()
	if !known {
		return
	}
	s.deleteRunFiles(runID)
	for peer := range peers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			"http://"+peer+"/v1/internal/exec/job/"+url.PathEscape(runID), nil)
		if err == nil {
			if resp, err := s.client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		cancel()
	}
}

// deleteRunFiles removes every local shuffle file under the run's
// namespace.
func (s *Scheduler) deleteRunFiles(runID string) {
	if s.opts.DFS == nil {
		return
	}
	prefix := "distexec/" + runID + "/"
	for _, name := range s.opts.DFS.List() {
		if strings.HasPrefix(name, prefix) {
			if err := s.opts.DFS.Delete(name); err != nil {
				s.opts.Log.Warn("shuffle GC failed", "file", name, "error", err)
			}
		}
	}
}
