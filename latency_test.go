package rheem

import (
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/flink"
	"rheem/internal/platform/graphmem"
	"rheem/internal/platform/pregel"
	"rheem/internal/platform/relstore"
	"rheem/internal/platform/spark"
	"rheem/internal/platform/streams"
)

// paperLatency is each bundled platform's latency on the paper's testbed,
// written out: the values every charge site requested before the latencies
// were one declaration per platform.
var paperLatency = map[string]driverutil.Latency{
	"spark":    {ContextMs: 150, StageMs: 12, BarrierMs: 4},
	"flink":    {ContextMs: 80, StageMs: 6, BarrierMs: 2},
	"pregel":   {ContextMs: 60, BarrierMs: 1.5},
	"relstore": {StageMs: 1.5, Slowdown: 2},
	"streams":  {Slowdown: 4},
	"graphmem": {Slowdown: 4},
}

// bootOf returns a bundled driver's running latency.
func bootOf(t *testing.T, d core.Driver) *driverutil.Boot {
	t.Helper()
	switch d := d.(type) {
	case *spark.Driver:
		return &d.Boot
	case *flink.Driver:
		return &d.Boot
	case *pregel.Driver:
		return &d.Boot
	case *relstore.Driver:
		return &d.Boot
	case *streams.Driver:
		return &d.Boot
	case *graphmem.Driver:
		return &d.Boot
	}
	t.Fatalf("%s (%T) is not a bundled driver", d.Name(), d)
	return nil
}

// TestPaperLatencies: each engine package declares its paper values once,
// NewContext runs every platform at them, FastSimulation at none, and fig
// 2(b)'s SystemML context at spark's values with a job latency of 36 ms.
func TestPaperLatencies(t *testing.T) {
	declared := map[string]driverutil.Latency{
		"spark": spark.Paper, "flink": flink.Paper, "pregel": pregel.Paper,
		"relstore": relstore.Paper, "streams": streams.Paper, "graphmem": graphmem.Paper,
	}
	systemML := Config{DFSDir: t.TempDir()}
	systemML.SparkConfig.Latency = spark.Paper
	systemML.SparkConfig.Latency.StageMs *= 3
	for _, c := range []struct {
		name string
		cfg  Config
		want func(platform string) driverutil.Latency
	}{
		{"paper", Config{DFSDir: t.TempDir()}, func(p string) driverutil.Latency { return paperLatency[p] }},
		{"fast", Config{DFSDir: t.TempDir(), FastSimulation: true}, func(string) driverutil.Latency { return driverutil.Latency{} }},
		{"SystemML", systemML, func(p string) driverutil.Latency {
			if p == "spark" {
				return driverutil.Latency{ContextMs: 150, StageMs: 36, BarrierMs: 4}
			}
			return paperLatency[p]
		}},
	} {
		ctx, err := NewContext(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ctx.Registry.Drivers() {
			if got, want := bootOf(t, d).Latency, c.want(d.Name()); got != want {
				t.Errorf("%s context: %s runs at %+v, want %+v", c.name, d.Name(), got, want)
			}
			if c.name == "paper" && declared[d.Name()] != paperLatency[d.Name()] {
				t.Errorf("%s.Paper = %+v, want %+v", d.Name(), declared[d.Name()], paperLatency[d.Name()])
			}
		}
	}
}

// TestEngineLatencyAcceptsOnlyWhatItCharges: an engine config's Latency may
// set only the fields its paper value sets, the latencies the engine
// charges; NewContext rejects any other and names it (the first, where there
// are several), with or without FastSimulation.
func TestEngineLatencyAcceptsOnlyWhatItCharges(t *testing.T) {
	for _, c := range []struct {
		platform, fields string
		set              func(*Config)
	}{
		{"spark", "Slowdown", func(c *Config) { c.SparkConfig.Latency = driverutil.Latency{StageMs: 12, Slowdown: 2} }},
		{"flink", "Slowdown", func(c *Config) { c.FlinkConfig.Latency.Slowdown = 2 }},
		{"pregel", "StageMs", func(c *Config) { c.PregelConfig.Latency.StageMs = 1 }},
		{"relstore", "ContextMs", func(c *Config) { c.RelstoreConfig.Latency = driverutil.Latency{ContextMs: 5, BarrierMs: 1} }},
	} {
		for _, fast := range []bool{false, true} {
			cfg := Config{DFSDir: t.TempDir(), FastSimulation: fast}
			c.set(&cfg)
			_, err := NewContext(cfg)
			if want := c.platform + ": latency sets " + c.fields + ", which"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, fast %v: NewContext returned %v, want an error containing %q", c.platform, fast, err, want)
			}
		}
	}
}

// TestQuoteBeforeAndAfterFirstStage: every bundled platform at paper latency
// is quoted its context boot plus its per-stage latency before its first
// stage and its per-stage latency after it. relstore's per-query latency is
// quoted as spark's and flink's job latency is, and pregel, like every other
// platform, is quoted its boot, not a superstep.
func TestQuoteBeforeAndAfterFirstStage(t *testing.T) {
	ctx, err := NewContext(Config{DFSDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	drivers := ctx.Registry.Drivers()
	if len(drivers) != len(paperLatency) {
		t.Fatalf("%d bundled drivers, want %d", len(drivers), len(paperLatency))
	}
	for _, d := range drivers {
		lat := paperLatency[d.Name()]
		if boot, stage := ctx.Registry.StartupCostMs(d.Name()); boot != lat.ContextMs || stage != lat.StageMs {
			t.Errorf("%s before its first stage: quoted %v + %v, want %v + %v", d.Name(), boot, stage, lat.ContextMs, lat.StageMs)
		}
		if _, _, err := d.Execute(&core.Stage{ID: 1, Platform: d.Name()}, core.NewInputs()); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if boot, stage := ctx.Registry.StartupCostMs(d.Name()); boot != 0 || stage != lat.StageMs {
			t.Errorf("%s after its first stage: quoted %v + %v, want 0 + %v", d.Name(), boot, stage, lat.StageMs)
		}
	}
}
