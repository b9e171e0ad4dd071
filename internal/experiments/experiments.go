// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 2 and 6) against the in-process substrates. Each
// experiment returns structured rows that cmd/rheem-bench renders as the
// paper's tables and bench_test.go asserts shape properties over (who wins,
// by roughly what factor, where the crossovers fall). Absolute numbers are
// laptop-scale; the Scale knob shrinks inputs further for quick runs.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"rheem"
)

// Row is one measurement: a figure, a sweep configuration, a system, and
// the measured runtime (negative when the system could not run — the
// paper's red crosses).
type Row struct {
	Figure string
	Config string
	System string
	Ms     float64
	Note   string
}

// String renders the row for table output.
func (r Row) String() string {
	ms := fmt.Sprintf("%9.1f", r.Ms)
	if r.Ms < 0 {
		ms = "        X"
	}
	note := r.Note
	if note != "" {
		note = "  (" + note + ")"
	}
	return fmt.Sprintf("%-8s %-22s %-16s %s ms%s", r.Figure, r.Config, r.System, ms, note)
}

// Options configure an experiment run.
type Options struct {
	// Scale shrinks (<1) or grows (>1) the default laptop-scale inputs.
	Scale float64
	// Seed makes data generation deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 20180701
	}
	return o
}

func (o Options) n(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

// newCtx builds a fresh context with the default (paper-shaped) simulated
// overheads; every measured run gets a cold cluster, like the paper's runs.
func newCtx() (*rheem.Context, error) {
	return rheem.NewContext(rheem.Config{})
}

// withCtx runs f on a fresh context (newCtx) and closes the context when f
// returns, so a run's DFS directory is gone before the next run starts.
func withCtx(f func(ctx *rheem.Context) error) error {
	ctx, err := newCtx()
	if err != nil {
		return err
	}
	defer ctx.Close()
	return f(ctx)
}

// timed measures one run.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// RenderTable renders rows grouped by figure and configuration.
func RenderTable(rows []Row) string {
	var b strings.Builder
	lastCfg := ""
	for _, r := range rows {
		if r.Config != lastCfg {
			if lastCfg != "" {
				b.WriteString("\n")
			}
			lastCfg = r.Config
		}
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Best returns the fastest system of the rows sharing a config (ignoring
// failed runs).
func Best(rows []Row, config string) (string, float64) {
	best, bestMs := "", -1.0
	for _, r := range rows {
		if r.Config != config || r.Ms < 0 {
			continue
		}
		if bestMs < 0 || r.Ms < bestMs {
			best, bestMs = r.System, r.Ms
		}
	}
	return best, bestMs
}

// Of filters rows by figure/config/system; empty selectors match all.
func Of(rows []Row, figure, config, system string) []Row {
	var out []Row
	for _, r := range rows {
		if (figure == "" || r.Figure == figure) &&
			(config == "" || r.Config == config) &&
			(system == "" || r.System == system) {
			out = append(out, r)
		}
	}
	return out
}

// MsOf returns the runtime of the unique row matching the selectors (-1 if
// absent or failed).
func MsOf(rows []Row, figure, config, system string) float64 {
	m := Of(rows, figure, config, system)
	if len(m) != 1 {
		return -1
	}
	return m[0].Ms
}
