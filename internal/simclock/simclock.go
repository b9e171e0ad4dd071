// Package simclock is the one seam for simulated time: every latency that
// stands in for the paper's cluster is charged through Charge. It imports
// nothing from the module, so any package can charge through it.
package simclock

import "time"

// Charge pays a simulated latency of d by sleeping it and returns the time
// the sleep took, which on a coarse host timer can be far more than d. A
// non-positive d costs nothing: Charge returns 0 at once and reads no clock.
func Charge(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	start := time.Now()
	time.Sleep(d)
	return time.Since(start)
}
