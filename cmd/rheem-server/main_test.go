package main

import (
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

// TestLogLevelNames: -log-level takes debug, info, warn or error in any case,
// and the logger is enabled from that level up. Other names, the old
// "warning" alias and an empty value among them, are refused.
func TestLogLevelNames(t *testing.T) {
	for name, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"error": slog.LevelError, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
	} {
		l, level, err := newLogger(&strings.Builder{}, name)
		if err != nil || level != want {
			t.Errorf("newLogger(%q) level = %v, %v; want %v", name, level, err, want)
			continue
		}
		if !l.Enabled(context.Background(), want) || l.Enabled(context.Background(), want-1) {
			t.Errorf("-log-level %s: logger not enabled from %v exactly", name, want)
		}
	}
	for _, name := range []string{"warning", "loud", ""} {
		if _, _, err := newLogger(&strings.Builder{}, name); err == nil {
			t.Errorf("newLogger(%q) accepted", name)
		}
	}
}

// TestLogLineFormat: a record is one text line of time, level, message and
// the call's key=value pairs, after the fields a derived logger binds.
func TestLogLineFormat(t *testing.T) {
	var b strings.Builder
	l, _, err := newLogger(&b, "info")
	if err != nil {
		t.Fatal(err)
	}
	l.With("component", "server").Info("job finished", "job", "j1-abc", "state", "succeeded", "attempts", 2)
	line := b.String()
	if !strings.HasPrefix(line, "time=") || strings.Count(line, "\n") != 1 {
		t.Fatalf("line = %q", line)
	}
	want := ` level=INFO msg="job finished" component=server job=j1-abc state=succeeded attempts=2` + "\n"
	if _, rest, _ := strings.Cut(line, " "); " "+rest != want {
		t.Fatalf("line = %q\nwant time=...%q", line, want)
	}

	b.Reset()
	l.Warn("x", "error", errors.New(`boom with spaces and "quotes"`), "empty", "")
	for _, frag := range []string{`level=WARN`, `error="boom with spaces and \"quotes\""`, `empty=""`} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("missing %s in %q", frag, b.String())
		}
	}
}

// TestLogLevelFiltering: records below the configured level are dropped.
func TestLogLevelFiltering(t *testing.T) {
	var b strings.Builder
	l, _, err := newLogger(&b, "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	out := b.String()
	if strings.Contains(out, "nope") || strings.Count(out, "\n") != 2 ||
		!strings.Contains(out, "level=WARN msg=yes") || !strings.Contains(out, "level=ERROR msg=also") {
		t.Fatalf("filtered output:\n%s", out)
	}
}
