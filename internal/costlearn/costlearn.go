// Package costlearn implements RHEEM's cost model learner (Section 4.5):
// instead of profiling operators in isolation (inaccurate under pipelining
// and cross-platform interaction), it fits the cost model's parameters from
// execution logs of whole stages. The fit minimizes the paper's regularized
// relative loss with stage-frequency weights using a genetic algorithm, and
// a log generator produces training runs over the three task topologies
// (pipeline, iterative, merge).
package costlearn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"rheem/internal/core"
	"rheem/internal/optimizer"
)

// OpLog records one operator execution within a stage.
type OpLog struct {
	CostKey string `json:"cost_key"`
	InCard  int64  `json:"in_card"`
	OutCard int64  `json:"out_card"`
}

// StageLog records one executed stage: its operators with true
// cardinalities and the measured wall-clock runtime — the learner's
// training unit (stages, not isolated operators).
type StageLog struct {
	Platform  string  `json:"platform"`
	RuntimeMs float64 `json:"runtime_ms"`
	Ops       []OpLog `json:"ops"`
}

// AppendLogs appends stage logs to a JSONL file.
func AppendLogs(path string, logs []StageLog) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("costlearn: open log: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, l := range logs {
		raw, err := json.Marshal(l)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(raw)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadLogs reads a JSONL stage-log file.
func LoadLogs(path string) ([]StageLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("costlearn: open log: %w", err)
	}
	defer f.Close()
	var out []StageLog
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		var l StageLog
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("costlearn: parse log: %w", err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// Options tune the genetic algorithm.
type Options struct {
	Population  int     // default 60
	Generations int     // default 120
	Seed        int64   // default 1
	Mutation    float64 // per-gene mutation probability, default 0.25
	// Smoothing is the paper's additive-smoothing regularizer s in the
	// relative loss. Default 5ms.
	Smoothing float64
}

func (o Options) withDefaults() Options {
	if o.Population <= 0 {
		o.Population = 60
	}
	if o.Generations <= 0 {
		o.Generations = 120
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Mutation <= 0 {
		o.Mutation = 0.25
	}
	if o.Smoothing <= 0 {
		o.Smoothing = 5
	}
	return o
}

// Learn fits the per-quantum and fixed-overhead parameters of every cost
// key appearing in the logs, starting from base (whose platform unit costs
// are kept). It returns a new cost table plus the achieved training loss.
func Learn(logs []StageLog, base *optimizer.CostTable, opts Options) (*optimizer.CostTable, float64, error) {
	if len(logs) == 0 {
		return nil, 0, fmt.Errorf("costlearn: no logs to learn from")
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// The gene vector: (perQuantum, fixed) per distinct cost key.
	keySet := map[string]bool{}
	for _, l := range logs {
		for _, op := range l.Ops {
			keySet[op.CostKey] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dim := len(keys) * 2

	// Stage weights: the sum of the relative frequencies of the stage's
	// operators among all stages, so frequent-operator stages do not drown
	// the others (Section 4.5).
	freq := map[string]float64{}
	totalOps := 0.0
	for _, l := range logs {
		for _, op := range l.Ops {
			freq[op.CostKey]++
			totalOps++
		}
	}
	weights := make([]float64, len(logs))
	for i, l := range logs {
		w := 0.0
		for _, op := range l.Ops {
			w += freq[op.CostKey] / totalOps
		}
		if w == 0 {
			w = 1
		}
		weights[i] = 1 / w // inverse: rare-operator stages count more
	}

	predict := func(genes []float64, l *StageLog) float64 {
		u := base.Units(l.Platform)
		total := 0.0
		for _, op := range l.Ops {
			gi := sort.SearchStrings(keys, op.CostKey) * 2
			// Mirror the optimizer's pricing: affine in (input + output).
			total += genes[gi]*float64(op.InCard+op.OutCard)*u.MsPerCPUUnit + genes[gi+1]*u.MsPerFixed
		}
		return total
	}
	s := opts.Smoothing
	loss := func(genes []float64) float64 {
		num, den := 0.0, 0.0
		for i := range logs {
			t := logs[i].RuntimeMs
			tp := predict(genes, &logs[i])
			rel := (math.Abs(t-tp) + s) / (t + s)
			num += weights[i] * rel * rel
			den += weights[i]
		}
		return num / den
	}

	// Seed the population around the base table's current parameters.
	seedGenes := make([]float64, dim)
	for i, k := range keys {
		p, ok := base.Ops[k]
		if !ok {
			p = core.OpCostParams{CPUPerQuantum: 0.001, FixedOverhead: 1}
		}
		seedGenes[2*i] = math.Max(p.CPUPerQuantum, 1e-7)
		seedGenes[2*i+1] = math.Max(p.FixedOverhead, 1e-4)
	}
	pop := make([][]float64, opts.Population)
	for i := range pop {
		g := make([]float64, dim)
		for j := range g {
			g[j] = seedGenes[j] * math.Exp(rng.NormFloat64())
		}
		pop[i] = g
	}
	pop[0] = append([]float64(nil), seedGenes...) // keep the seed itself

	fitness := make([]float64, len(pop))
	evaluate := func() {
		for i := range pop {
			fitness[i] = loss(pop[i])
		}
	}
	evaluate()

	tournament := func() []float64 {
		best := rng.Intn(len(pop))
		for k := 0; k < 2; k++ {
			c := rng.Intn(len(pop))
			if fitness[c] < fitness[best] {
				best = c
			}
		}
		return pop[best]
	}

	for gen := 0; gen < opts.Generations; gen++ {
		// Elitism: carry the best individual over unchanged.
		bi := 0
		for i := range fitness {
			if fitness[i] < fitness[bi] {
				bi = i
			}
		}
		// Mutation strength anneals: explore early, refine late.
		sigma := 1.0 - 0.9*float64(gen)/float64(opts.Generations)
		next := make([][]float64, 0, len(pop))
		next = append(next, append([]float64(nil), pop[bi]...))
		for len(next) < len(pop) {
			a, b := tournament(), tournament()
			child := make([]float64, dim)
			for j := range child {
				// Crossover: pick a parent gene or blend geometrically
				// (parameters are positive scale quantities), then mutate
				// log-normally.
				switch rng.Intn(3) {
				case 0:
					child[j] = a[j]
				case 1:
					child[j] = b[j]
				default:
					child[j] = math.Sqrt(a[j] * b[j])
				}
				if rng.Float64() < opts.Mutation {
					child[j] *= math.Exp(rng.NormFloat64() * sigma)
				}
			}
			next = append(next, child)
		}
		pop = next
		evaluate()
	}

	bi := 0
	for i := range fitness {
		if fitness[i] < fitness[bi] {
			bi = i
		}
	}
	learned := base.Clone()
	for i, k := range keys {
		p := learned.Ops[k]
		p.CPUPerQuantum = pop[bi][2*i]
		p.FixedOverhead = pop[bi][2*i+1]
		learned.Ops[k] = p
	}
	return learned, fitness[bi], nil
}
