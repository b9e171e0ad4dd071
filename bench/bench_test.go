package main

import (
	"regexp"
	"testing"
)

// TestSmoke runs all five workloads, both passes, at a fiftieth of the
// recorded input sizes, and holds the harness to BENCHMARK.json: every
// named metric is emitted once per workload, nothing unnamed is computed,
// every name is well-formed, no job fails, and the contract's counts hold.
// It keeps the benchmark from rotting under the repository's ordinary
// `go test ./...`.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}

	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	o := options{seed: 7, seconds: 0.3, scale: 0.02, workDir: dir, setups: 1}
	computed := map[string]bool{}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		for pass, specs := range map[string][]metricSpec{"untraced": spec.EndToEnd, "traced": spec.PerLayer} {
			res, err := runPass(w.Name, pass, o)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, pass, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s %s: %d of %d jobs failed: %v", w.Name, pass, res.Failed, res.Attempted, res.Failures)
			}
			values, err := emit(specs, res.Metrics)
			if err != nil {
				t.Errorf("%s %s: %v", w.Name, pass, err)
			}
			if len(values) != len(specs) {
				t.Errorf("%s %s: %d metrics emitted, want %d", w.Name, pass, len(values), len(specs))
			}
			for m := range res.Metrics {
				computed[m] = true
			}
		}
	}
	// A name no workload ever computes would read 0 everywhere, for ever.
	for m := range seen {
		if !computed[m] {
			t.Errorf("metric %q is named in BENCHMARK.json but computed on no workload", m)
		}
	}
}
