package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer: the layers
// are measured from outside, so these spans live here and not in the program.
type span struct {
	Name   string
	Job    int // spans of one job share this identifier
	Parent int // index of the causing span, -1 for a job's root
	Start  time.Time
	End    time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced pass runs with harness spans off.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, job, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: time.Now()})
	return len(r.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return now.Sub(r.spans[id].Start).Seconds()
}

// writeChrome writes the spans in Chrome trace_event form ("X" complete
// events, microseconds), one lane per job.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: s.Start.UnixMicro(), Dur: s.End.Sub(s.Start).Microseconds(),
			Pid: 1, Tid: s.Job,
			Args: map[string]int{"span": i, "parent": s.Parent, "job": s.Job},
		})
	}
	r.mu.Unlock()
	raw, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
