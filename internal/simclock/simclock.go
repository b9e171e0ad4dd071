// Package simclock is the one seam for simulated time: every latency that
// stands in for the paper's cluster is charged through a Clock. A charge
// returns the time it models, the time asked for; the wall pays at least
// that. A host's timer sleeps past short requests (on a typical Linux host a
// sleep of tens of microseconds takes about a millisecond), so a Clock keeps
// what it has over-slept as credit and pays later charges from it: over one
// clock the time slept is never less than the total asked for, and exceeds it
// by at most one sleep's overshoot. An executor run holds one clock for all
// its stages, so credit never passes from one run to another. The package
// imports nothing from the module, so any package can charge through it.
package simclock

import (
	"sync"
	"time"
)

// Clock charges simulated latencies and keeps the credit of its over-sleeps.
// The zero value is a fresh clock with no credit, a nil *Clock charges as a
// fresh one, and a Clock is safe for concurrent charges.
type Clock struct {
	mu     sync.Mutex
	credit time.Duration // slept beyond what was asked, not yet paid out
}

// Charge pays a simulated latency of d and returns d, the time modelled. It
// pays from the clock's credit first and sleeps only the rest; what that
// sleep overshoots becomes credit. A non-positive d costs nothing: Charge
// returns 0 at once and reads no clock.
func (c *Clock) Charge(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	if c == nil {
		c = new(Clock)
	}
	c.mu.Lock()
	paid := min(c.credit, d)
	c.credit -= paid
	c.mu.Unlock()
	if rest := d - paid; rest > 0 {
		start := time.Now()
		time.Sleep(rest)
		over := time.Since(start) - rest
		c.mu.Lock()
		c.credit += over
		c.mu.Unlock()
	}
	return d
}

// Charge pays d on a fresh clock: a charge with no run to share credit with.
func Charge(d time.Duration) time.Duration { return new(Clock).Charge(d) }
