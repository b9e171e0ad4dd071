package core

import (
	"sync"
	"testing"
)

// TestLoopRunKeepsPerOperator: a loop run keeps one value per operator, the
// stages of one wave keep and read theirs from their own goroutines, and a
// nil loop run (outside any loop) keeps nothing.
func TestLoopRunKeepsPerOperator(t *testing.T) {
	run := new(LoopRun)
	ops := make([]*Operator, 8)
	for i := range ops {
		ops[i] = &Operator{ID: i}
	}
	// Operator i keeps 1000·i + the round it last ran in.
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				if want := 1000*i + round - 1; round > 0 && run.Kept(op) != want {
					t.Errorf("op %d round %d: kept %v, want %d", i, round, run.Kept(op), want)
					return
				}
				run.Keep(op, 1000*i+round)
			}
		}()
	}
	wg.Wait()
	for i, op := range ops {
		if v := run.Kept(op); v != 1000*i+99 {
			t.Fatalf("op %d: kept %v after 100 rounds", i, v)
		}
	}

	var outside *LoopRun
	outside.Keep(ops[0], 1)
	if v := outside.Kept(ops[0]); v != nil {
		t.Fatalf("a nil loop run kept %v", v)
	}
}
