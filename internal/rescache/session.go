package rescache

import (
	"context"
	"sort"
	"strings"

	"rheem/internal/core"
	"rheem/internal/trace"
)

// ScanLabelPrefix marks cache-scan source operators substituted into a plan
// on a cache hit. The prefix persists on the (mutated) plan, so a later
// session over the same plan object recognizes the scans and does not
// re-fingerprint or re-store data that already came from the cache.
const ScanLabelPrefix = "cache-scan:"

// Session drives the cache through one job execution: Begin probes the
// cache for every fingerprinted subtree of the plan and substitutes
// cache-scan sources on hits; Fingerprints feeds the optimizer's
// cache-marking pass; Close releases single-flight claims (waking followers
// of this job's fingerprints). All methods are nil-receiver safe, so
// cache-less executions carry a nil session at zero cost.
type Session struct {
	cache *Cache
	plan  *core.Plan
	ctx   context.Context // the job's context, bounding remote-tier fetches
	fps   map[*core.Operator]*core.FPInfo
	// digests holds the content digest of every collection source of the
	// plan that carries none, so each is hashed once however many passes the
	// session makes; passes counts those fingerprinting passes.
	digests map[*core.Operator]string
	passes  int

	claimed    []string
	claimedSet map[string]bool
	hits       int
	probed     int
}

// Begin opens a cache session for one execution of plan. It probes the
// cache for every fingerprinted subtree (deepest first), substitutes
// cache-scan sources on hits (pruning the now-dead upstream operators), and
// then applies sink-level single-flight: if another in-flight job is
// already computing an identical sink result, Begin blocks until that job
// publishes (or fails), so N identical concurrent jobs compute exactly
// once. A cache-probe trace span (with nested cache-hit spans) is emitted
// under the span carried by ctx. Begin mutates the plan on hits.
func (c *Cache) Begin(ctx context.Context, plan *core.Plan) *Session {
	if c == nil {
		return nil
	}
	s := &Session{cache: c, plan: plan, ctx: ctx, claimedSet: map[string]bool{},
		digests: map[*core.Operator]string{}}
	probe := trace.FromContext(ctx).Start(trace.KindCacheProbe, "cache-probe")
	s.substitute(probe)
	s.flight(ctx, probe)
	probe.SetInt("probed", int64(s.probed))
	probe.SetInt("hits", int64(s.hits))
	probe.SetInt("fingerprint_passes", int64(s.passes))
	probe.SetInt("collections_hashed", int64(len(s.digests)))
	probe.End()
	return s
}

// Fingerprints returns the plan's post-substitution subtree fingerprints,
// the input of optimizer.MarkCacheOuts.
func (s *Session) Fingerprints() map[*core.Operator]*core.FPInfo {
	if s == nil {
		return nil
	}
	return s.fps
}

// Hits reports how many subtrees were served from the cache.
func (s *Session) Hits() int {
	if s == nil {
		return 0
	}
	return s.hits
}

// Close releases this session's single-flight claims, waking followers.
// It must be called on every execution path (success or failure): a failed
// leader's followers re-probe, miss, and elect a new leader among
// themselves, so a crash never wedges the fingerprint.
func (s *Session) Close() {
	if s == nil {
		return
	}
	for _, fp := range s.claimed {
		s.cache.Release(fp)
	}
	s.claimed = nil
}

// fingerprint runs one fingerprinting pass over the plan as it now stands.
func (s *Session) fingerprint() map[*core.Operator]*core.FPInfo {
	s.passes++
	return core.FingerprintPlan(s.plan, core.FingerprintOptions{
		SourceVersion: s.cache.SourceVersion,
		Skip:          s.skipSet(),
		Digests:       s.digests,
	})
}

// substitute runs one probe pass: fingerprint the plan, probe every
// candidate subtree deepest-first, and substitute cache-scan sources on
// hits. Substituting at an operator prunes its entire upstream subtree, so
// hashes of surviving operators (computed before any mutation) stay valid
// for the remainder of the pass. A pass that substituted something finishes
// by fingerprinting again, giving the post-substitution map used for cache
// marking; one that did not already has it.
func (s *Session) substitute(probe *trace.Span) {
	s.fps = s.fingerprint()
	order, err := s.plan.TopoOrder()
	if err != nil {
		return
	}
	before := s.hits
	noSub := s.unsubstitutable()
	removed := map[*core.Operator]bool{}
	for i := len(order) - 1; i >= 0; i-- {
		op := order[i]
		if removed[op] || noSub[op] {
			continue
		}
		info := s.fps[op]
		if info == nil || op.Kind == core.KindCollectionSource {
			continue
		}
		s.probed++
		hit, ok := s.cache.get(info.Hash, true)
		if !ok {
			// A local miss may still be a fleet hit: probe the ring owner.
			hit, ok = s.cache.fetchRemote(s.ctx, info.Hash, probe)
		}
		if !ok {
			continue
		}
		for _, gone := range s.apply(op, info, hit, probe) {
			removed[gone] = true
		}
	}
	if s.hits > before {
		s.fps = s.fingerprint()
	}
}

// skipSet collects the plan's existing cache-scan sources: their content
// came from the cache, so treating them as fingerprintable would re-store
// already-cached results under content-hash identities.
func (s *Session) skipSet() map[*core.Operator]bool {
	skip := map[*core.Operator]bool{}
	for _, op := range s.plan.Operators() {
		if strings.HasPrefix(op.Label, ScanLabelPrefix) {
			skip[op] = true
		}
	}
	return skip
}

// unsubstitutable collects operators a cache hit cannot replace: broadcast
// producers (rewiring side inputs is not supported) and loop-body outer
// reference targets (the placeholder holds a pointer to the operator, which
// must stay executable).
func (s *Session) unsubstitutable() map[*core.Operator]bool {
	out := map[*core.Operator]bool{}
	for _, e := range s.plan.Edges() {
		if e.Broadcast {
			out[e.From] = true
		}
	}
	for _, op := range s.plan.Operators() {
		for _, ref := range op.OuterRefs() {
			out[ref.OuterRef] = true
		}
	}
	return out
}

// apply substitutes a cache-scan source for op's subtree and returns the
// pruned operators. Sinks keep their identity (results are collected by
// sink operator pointer) and are instead re-fed from the scan; any other
// operator is replaced for all of its consumers.
func (s *Session) apply(op *core.Operator, info *core.FPInfo, hit Hit, probe *trace.Span) []*core.Operator {
	quanta := hit.Quanta
	if quanta == nil {
		quanta = []any{}
	}
	scan := s.plan.Add(&core.Operator{
		Kind:   core.KindCollectionSource,
		Label:  ScanLabelPrefix + shortFP(info.Hash),
		Params: core.Params{Collection: quanta},
	})
	if op.Kind.IsSink() {
		s.plan.RewireInput(op, 0, scan)
	} else {
		consumers := append([]*core.Operator(nil), op.Outputs()...)
		for _, consumer := range consumers {
			for port, in := range consumer.Inputs() {
				if in == op {
					s.plan.RewireInput(consumer, port, scan)
				}
			}
		}
	}
	removed := s.plan.RemoveUnreachable()
	s.hits++
	sp := probe.Start(trace.KindCacheHit, "cache-hit:"+shortFP(info.Hash))
	sp.SetAttr("fingerprint", info.Hash)
	sp.SetAttr("operator", op.String())
	sp.SetInt("quanta", int64(len(quanta)))
	sp.SetFloat("saved_cost_ms", hit.CostMs)
	sp.SetInt("pruned_ops", int64(len(removed)))
	if hit.Remote {
		sp.SetAttr("tier", "remote")
	}
	sp.End()
	return removed
}

// flight applies sink-level single-flight. For every sink whose subtree
// fingerprint missed the cache, the session either claims leadership (and
// computes the result as part of its execution) or waits for the current
// leader, then re-probes. A won claim is re-probed too, without counting a
// second miss: a leader may have stored and released between this
// session's miss and its claim, and then the result is served, not computed
// again. Claims are acquired in fingerprint order and a session only ever
// waits on fingerprints greater than those it holds, so concurrent jobs with
// overlapping sink sets cannot deadlock.
func (s *Session) flight(ctx context.Context, probe *trace.Span) {
	for {
		type cand struct {
			sink *core.Operator
			fp   string
		}
		var cands []cand
		for _, sink := range s.plan.Sinks() {
			if info := s.fps[sink]; info != nil && !s.claimedSet[info.Hash] {
				cands = append(cands, cand{sink, info.Hash})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].fp < cands[j].fp })
		again := false
		for _, cd := range cands {
			leader, done := s.cache.Claim(cd.fp)
			if leader {
				hit, ok := s.cache.get(cd.fp, false)
				if !ok {
					s.claimed = append(s.claimed, cd.fp)
					s.claimedSet[cd.fp] = true
					continue
				}
				s.cache.Release(cd.fp)
				s.apply(cd.sink, s.fps[cd.sink], hit, probe)
				s.fps = s.fingerprint()
			} else {
				select {
				case <-done:
					// The leader finished (or failed): re-probe. A hit
					// substitutes the sink's input; a miss keeps the sink as
					// a candidate, and the next round claims leadership.
					s.substitute(probe)
				case <-ctx.Done():
					return
				}
			}
			again = true
			break
		}
		if !again {
			return
		}
	}
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// StoreResult materializes one marked stage output into the cache,
// estimating its footprint through the binary quantum codec. It returns the
// estimated bytes and whether the entry was admitted; results with
// un-encodable quanta are not cached. With a fleet tier attached, the result is also written through to the
// fingerprint's ring owner so any peer's later probe finds it.
func (c *Cache) StoreResult(ctx context.Context, co *core.CacheOut, quanta []any) (int64, bool) {
	if c == nil || co == nil {
		return 0, false
	}
	bytes, ok := EstimateBytes(quanta)
	if !ok {
		return 0, false
	}
	admitted := c.Put(co.Fingerprint, quanta, co.CostMs, bytes, co.Sources)
	// Write-through happens even when the local tier rejected the entry
	// (capacity budgets differ per peer); the owner decides for itself.
	if remote := c.remoteTier(); remote != nil {
		remote.Store(ctx, co.Fingerprint, quanta, co.CostMs, bytes, co.Sources)
	}
	return bytes, admitted
}
