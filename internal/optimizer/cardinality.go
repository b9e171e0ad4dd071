package optimizer

import (
	"bytes"
	"io"
	"os"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// SourceResolver estimates the output cardinality of a source operator
// (file sampling, table statistics, ...). Returning false defers to the
// operator's own estimator.
type SourceResolver func(op *core.Operator) (core.CardEstimate, bool)

// ChainResolvers combines resolvers; the first that answers wins.
func ChainResolvers(rs ...SourceResolver) SourceResolver {
	return func(op *core.Operator) (core.CardEstimate, bool) {
		for _, r := range rs {
			if r == nil {
				continue
			}
			if est, ok := r(op); ok {
				return est, true
			}
		}
		return core.CardEstimate{}, false
	}
}

// DFSSourceResolver estimates text-file source cardinalities by sampling
// the first block: lines ~= fileSize / avgLineLength (Section 4.1: "it
// first computes the output cardinalities of the source operators via
// sampling"). The store samples a file once per version, so after the
// first estimate this costs a lookup whatever the file's size.
func DFSSourceResolver(store *dfs.Store) SourceResolver {
	return func(op *core.Operator) (core.CardEstimate, bool) {
		if op.Kind != core.KindTextFileSource || store == nil || !dfs.IsPath(op.Params.Path) {
			return core.CardEstimate{}, false
		}
		smp, err := store.LineSample(dfs.TrimScheme(op.Params.Path))
		if err != nil {
			return core.CardEstimate{}, false
		}
		if smp.Size == 0 {
			return core.ExactCard(0), true
		}
		if smp.Lines == 0 {
			return core.CardEstimate{}, false
		}
		if smp.Blocks == 1 {
			// The sample covered the whole file: the count is exact.
			return core.ExactCard(smp.Lines), true
		}
		avg := float64(smp.Bytes) / float64(smp.Lines)
		est := float64(smp.Size) / avg
		return core.CardEstimate{
			Low:        int64(est * 0.8),
			High:       int64(est*1.2) + 1,
			Confidence: 0.9,
		}, true
	}
}

// TableStatsResolver answers table-source cardinalities from live table
// statistics (the DBMS's own row counts).
func TableStatsResolver(lookup func(store, table string) (int64, bool)) SourceResolver {
	return func(op *core.Operator) (core.CardEstimate, bool) {
		if op.Kind != core.KindTableSource {
			return core.CardEstimate{}, false
		}
		n, ok := lookup(op.Params.Store, op.Params.Table)
		if !ok {
			return core.CardEstimate{}, false
		}
		if op.Params.Where != nil {
			// Predicated scans: assume 1/3 selectivity with low confidence;
			// the progressive optimizer corrects gross misestimates.
			return core.CardEstimate{Low: n / 10, High: n, Confidence: 0.5}, true
		}
		return core.ExactCard(n), true
	}
}

// LocalFileResolver counts the lines of local text-file sources exactly. A
// local file has no version the system controls, so nothing is cached: the
// file is counted on every call, streamed through a fixed buffer.
func LocalFileResolver() SourceResolver {
	return func(op *core.Operator) (core.CardEstimate, bool) {
		if op.Kind != core.KindTextFileSource || dfs.IsPath(op.Params.Path) {
			return core.CardEstimate{}, false
		}
		n, err := countLines(op.Params.Path)
		if err != nil {
			return core.CardEstimate{}, false
		}
		return core.ExactCard(n), true
	}
}

// countLines counts a file's lines as core.ReadTextFile splits them: every
// newline ends one, and a final line without a newline counts too.
func countLines(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 32<<10)
	var n int64
	last := byte('\n')
	for {
		m, err := f.Read(buf)
		if m > 0 {
			n += int64(bytes.Count(buf[:m], []byte{'\n'}))
			last = buf[m-1]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	if last != '\n' {
		n++
	}
	return n, nil
}

// EstimateCards walks the plan in topological order deriving the output
// cardinality estimate of every operator, using resolve for sources,
// operator selectivity hints where given, and the per-kind estimator
// functions otherwise. Known cardinalities (from a previous partial
// execution) may be pinned via known.
func EstimateCards(p *core.Plan, resolve SourceResolver, known map[*core.Operator]int64) (map[*core.Operator]core.CardEstimate, error) {
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	cards := make(map[*core.Operator]core.CardEstimate, len(order))
	for _, op := range order {
		if n, ok := known[op]; ok {
			cards[op] = core.ExactCard(n)
			continue
		}
		var in []core.CardEstimate
		for _, producer := range op.Inputs() {
			in = append(in, cards[producer])
		}
		var est core.CardEstimate
		if core.InArityOf(op) == 0 && resolve != nil {
			if e, ok := resolve(op); ok {
				est = e
				cards[op] = est
				continue
			}
		}
		if op.Kind.IsLoop() && op.Body != nil {
			// The loop's output is its body's output after the iterations;
			// estimate one body pass seeded with the loop input estimate.
			bodyCards, err := estimateLoopBody(op, in, resolve)
			if err != nil {
				return nil, err
			}
			est = bodyCards[op.Body.LoopOutput]
		} else {
			est = core.EstimateCardOf(op, in)
		}
		cards[op] = est
	}
	return cards, nil
}

func estimateLoopBody(loop *core.Operator, loopIn []core.CardEstimate, resolve SourceResolver) (map[*core.Operator]core.CardEstimate, error) {
	seed := core.ExactCard(0)
	if len(loopIn) > 0 {
		seed = loopIn[0]
	}
	pinned := func(op *core.Operator) (core.CardEstimate, bool) {
		if op == loop.Body.LoopInput {
			return seed, true
		}
		if resolve != nil {
			return resolve(op)
		}
		return core.CardEstimate{}, false
	}
	return EstimateCards(loop.Body, pinned, nil)
}
