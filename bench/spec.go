package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json. It is the single list of metric names and
// units: the harness emits exactly the metrics it names, so a metric cannot
// be computed here and missing there, or the other way round.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit renders the computed values as the metrics the spec names for the
// pass. A per-layer metric the workload does not exercise reads 0 ("this
// layer is not on this workload's path"); a computed value the spec does not
// name is a harness bug and an error.
func emit(specs []metricSpec, computed map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v := computed[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range computed {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is computed but not named in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs, interpolated linearly between the
// two nearest ranks of a sorted copy (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a rate over no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A window is cut into equal blocks of about batchBlockS or serveBlockS
// seconds, longer where the window would not give each blockJobs jobs. The
// quiet blocks are those whose median job time is within quietSlack of the
// best block's; every time-based metric is taken per quiet block and reported
// as the median over them. The host this was sized on flips between two
// speed states every 5 to 25 s (5 s medians of one 120 s declarative_agg run,
// in ms: 15.6 20.6 20.5 20.4 20.2 14.9 20.1 14.6 15.1 14.1 15.9 14.1 17.3 21.0
// ...), with no page faults or context switches to show for it inside the
// process. The p50 of a whole window then lands on either state; that of its
// quiet blocks does not. A slowdown of the system itself is in every block's
// numbers and stays.
//
// A block that straddles a flip passes as quiet while under half of it is
// slow. With five 3 s blocks and the p90 taken over the pooled jobs of the
// quiet ones, its slow jobs carried the p90 into the slow state whenever they
// were a tenth of the jobs kept: spread 0.23 and 0.38 over two sets of ten
// declarative_agg runs. Per block they move one block's p90, which the median
// over blocks leaves out, and short blocks keep such blocks few. Batch jobs
// are all the same job, so half a dozen place a block's median: over twenty
// declarative_agg runs on a restless host the spread of job_s_p90 was 0.18
// with 3 s blocks, 0.15 with 1 s and 0.08 with 0.5 s. A serve_mixed block's
// median and p90 depend on its share of cache misses, which takes about a
// thousand jobs to settle: with 1 s blocks the rule picked blocks by their
// luck with misses, and the spread of job_s_p50 rose from 0.075 to 0.115.
const (
	batchBlockS = 0.5
	serveBlockS = 4.0
	blockJobs   = 6
	quietSlack  = 1.10
)

// quietBlocks cuts the window into blocks of about blockSeconds by job start
// (seconds since the window began) and returns the job times of each quiet
// block and a block's length in seconds. A block with under half of blockJobs jobs is never
// quiet; where none has more, the whole window is one block.
func quietBlocks(starts, times []float64, window, blockSeconds float64) (quiet [][]float64, blockS float64) {
	n := max(1, min(int(window/blockSeconds), len(times)/blockJobs))
	blocks := make([][]float64, n)
	for i, t := range times {
		b := min(int(starts[i]/window*float64(n)), n-1)
		blocks[b] = append(blocks[b], t)
	}
	best := 0.0
	for _, ts := range blocks {
		if p50 := median(ts); len(ts) >= blockJobs/2 && (best == 0 || p50 < best) {
			best = p50
		}
	}
	if best == 0 {
		return [][]float64{times}, window
	}
	for _, ts := range blocks {
		if len(ts) >= blockJobs/2 && median(ts) <= quietSlack*best {
			quiet = append(quiet, ts)
		}
	}
	return quiet, window / float64(n)
}
