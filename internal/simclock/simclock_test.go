package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestChargeNonPositiveIsFree(t *testing.T) {
	for _, d := range []time.Duration{0, -1, -time.Second} {
		start := time.Now()
		if got := Charge(d); got != 0 {
			t.Fatalf("Charge(%v) = %v, want 0", d, got)
		}
		if got := new(Clock).Charge(d); got != 0 {
			t.Fatalf("Clock.Charge(%v) = %v, want 0", d, got)
		}
		if el := time.Since(start); el > 50*time.Millisecond {
			t.Fatalf("Charge(%v) took %v, want an immediate return", d, el)
		}
	}
}

// A charge returns the time it models, and a fresh clock (the package's
// Charge, a nil clock) sleeps at least that.
func TestChargeReturnsAtLeastTheRequest(t *testing.T) {
	var nilClock *Clock
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Millisecond} {
		for name, charge := range map[string]func(time.Duration) time.Duration{"Charge": Charge, "nil clock": nilClock.Charge} {
			start := time.Now()
			if got := charge(d); got != d {
				t.Fatalf("%s(%v) = %v, want the request", name, d, got)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("%s(%v) took %v, want at least the request", name, d, el)
			}
		}
	}
}

// Over one clock the wall pays the total requested, plus the credit still
// unpaid, which is at most the last sleep's overshoot: a host timer that
// sleeps about a millisecond for any shorter request took about 100 ms for
// these 20 ms when every charge slept on its own.
func TestClockPaysTheTotalRequested(t *testing.T) {
	const n, d = 100, 200 * time.Microsecond
	var c Clock
	start := time.Now()
	for range n {
		c.Charge(d)
	}
	el := time.Since(start)
	if el < n*d+c.credit {
		t.Fatalf("%d charges of %v took %v, want at least %v and the %v of credit left", n, d, el, n*d, c.credit)
	}
	if el >= n*d+10*time.Millisecond {
		t.Fatalf("%d charges of %v took %v, want under %v", n, d, el, n*d+10*time.Millisecond)
	}
}

// Credit stays with the clock that earned it: after one clock has over-slept,
// a fresh clock still sleeps all of its charge.
func TestFreshClockInheritsNoCredit(t *testing.T) {
	var used Clock
	for range 10 {
		used.Charge(50 * time.Microsecond)
	}
	const d = 1500 * time.Microsecond
	for name, charge := range map[string]func(time.Duration) time.Duration{"Charge": Charge, "new clock": new(Clock).Charge} {
		start := time.Now()
		charge(d)
		if el := time.Since(start); el < d {
			t.Fatalf("%s(%v) after another clock over-slept took %v, want at least %v", name, d, el, d)
		}
	}
}

// Goroutines charging one clock at once together sleep at least what they
// asked: no credit is paid out twice.
func TestConcurrentChargesPayTheTotal(t *testing.T) {
	const goroutines, n, d = 2, 50, 300 * time.Microsecond
	var c Clock
	slept := make([]time.Duration, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				start := time.Now()
				c.Charge(d)
				slept[g] += time.Since(start)
			}
		}()
	}
	wg.Wait()
	var total time.Duration
	for _, s := range slept {
		total += s
	}
	if want := goroutines * n * d; total < want {
		t.Fatalf("%d goroutines charging %d × %v slept %v together, want at least %v", goroutines, n, d, total, want)
	}
}
