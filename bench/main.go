// Command bench is the repository's standing performance benchmark: five
// named workloads, end-to-end metrics from an untraced pass and per-layer
// metrics from a traced pass, every layer measured from outside the program.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory says why each exists.
//
//	go run ./bench                                   every workload, both passes
//	go run ./bench -workload udf_wordcount -trace 0  one workload, one pass
//	go run ./bench -compare a.json b.json            two result files, by bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const specPath = "BENCHMARK.json"

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Untraced *passResult `json:"untraced,omitempty"`
	Traced   *passResult `json:"traced,omitempty"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Provenance map[string]any             `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	traceFlag := flag.String("trace", "", "pass: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics); default both")
	seed := flag.Int64("seed", 20180701, "seed of every generated input and random draw")
	seconds := flag.Float64("seconds", 0, "length of a measured window (default: run_seconds of BENCHMARK.json)")
	out := flag.String("out", "bench/out/result.json", "result file; traces and scratch data go beside it")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 past a bound")
	flag.Parse()

	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var passes []string
	switch *traceFlag {
	case "":
		passes = []string{"untraced", "traced"}
	case "0":
		passes = []string{"untraced"}
	case "1":
		passes = []string{"traced"}
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	var names []string
	for _, w := range spec.Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	workDir, err := filepath.Abs(filepath.Dir(*out))
	if err != nil {
		return err
	}
	// Engines that spill use the process temp dir; keep it inside the
	// checkout with everything else the run writes.
	tmp := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	os.Setenv("TMPDIR", tmp)
	o := options{seed: *seed, seconds: *seconds, scale: 1, workDir: workDir, setups: 5}

	file := resultFile{Provenance: provenance(o), Workloads: map[string]*workloadResult{}}
	var last map[string]any
	for _, name := range names {
		wr := &workloadResult{}
		file.Workloads[name] = wr
		for _, pass := range passes {
			res, err := runPass(name, pass, o)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, pass, err)
			}
			specs := spec.EndToEnd
			if pass == "traced" {
				wr.Traced, specs = res, spec.PerLayer
			} else {
				wr.Untraced = res
			}
			values, err := emit(specs, res.Metrics)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, pass, err)
			}
			printPass(name, pass, res, specs, values)
			last = map[string]any{"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": values}
		}
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	// The last line of one workload × one pass is its result as one JSON
	// object, the form a driver reads.
	if len(names) == 1 && len(passes) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

func runPass(name, pass string, o options) (*passResult, error) {
	if name == "serve_mixed" {
		if pass == "traced" {
			return tracedServe(o)
		}
		return untracedServe(o)
	}
	for _, w := range batchWorkloads {
		if w.name == name {
			if pass == "traced" {
				return tracedBatch(w, o)
			}
			return untracedBatch(w, o)
		}
	}
	return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the harness does not have", name)
}

// printPass prints every metric of the pass by name with its unit.
func printPass(name, pass string, res *passResult, specs []metricSpec, values map[string]metricValue) {
	fmt.Printf("== %s  %s  jobs=%d failed=%d platforms=%s wall=%.1fs sizes=%v\n",
		name, pass, res.Attempted, res.Failed, strings.Join(res.Platforms, "+"), res.WallS, res.Sizes)
	for _, f := range res.Failures {
		fmt.Printf("   failure: %s\n", f)
	}
	for _, m := range specs {
		fmt.Printf("   %-36s %14.6g %s\n", m.Name, values[m.Name].Value, m.Unit)
	}
}

// provenance records where and how a result file was produced, so that two
// files are compared knowing what differs between them.
func provenance(o options) map[string]any {
	p := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"setups":     o.setups,
		"warmup_jobs": map[string]int{
			"batch": warmupJobs, "serve_mixed": serveWarmups,
		},
		"git_commit": "unknown", // a checkout that is not a git repository
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_commit"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// compareFiles prints, per workload × end-to-end metric, both values, the
// relative difference and the metric's bound, and fails when b is worse
// than a by more than the bound anywhere.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	names := make([]string, 0, len(files[0].Workloads))
	for name := range files[0].Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	var past []string
	for _, name := range names {
		a, b := files[0].Workloads[name].Untraced, files[1].Workloads[name]
		if a == nil || b == nil || b.Untraced == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := a.Metrics[m.Name], b.Untraced.Metrics[m.Name]
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			mark := ""
			if worse > m.Bound {
				mark = "  PAST BOUND"
				past = append(past, name+" "+m.Name)
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
		if b.Untraced.Failed > 0 {
			past = append(past, fmt.Sprintf("%s failed %d of %d jobs", name, b.Untraced.Failed, b.Untraced.Attempted))
		}
	}
	if len(past) > 0 {
		return fmt.Errorf("past bound: %s", strings.Join(past, "; "))
	}
	return nil
}
