package simclock

import (
	"testing"
	"time"
)

func TestChargeNonPositiveIsFree(t *testing.T) {
	for _, d := range []time.Duration{0, -1, -time.Second} {
		start := time.Now()
		if got := Charge(d); got != 0 {
			t.Fatalf("Charge(%v) = %v, want 0", d, got)
		}
		if el := time.Since(start); el > 50*time.Millisecond {
			t.Fatalf("Charge(%v) took %v, want an immediate return", d, el)
		}
	}
}

func TestChargeReturnsAtLeastTheRequest(t *testing.T) {
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Millisecond} {
		if got := Charge(d); got < d {
			t.Fatalf("Charge(%v) = %v, want at least %v", d, got, d)
		}
	}
}
