package core

import "sync"

// Round places a stage execution in its loop: the iteration it runs in and
// the state the loop's run keeps across its rounds. The zero Round is outside
// any loop.
type Round struct {
	// N is the loop's current iteration (0 outside loops); per-iteration
	// operators such as Sample vary their behaviour with it.
	N int
	// Run is the state of the loop run the round belongs to; nil outside
	// loops.
	Run *LoopRun
}

// LoopRun is what one run of a loop keeps across its rounds: a value an
// operator built in one round from loop-invariant facts and reuses in the
// next (a shuffle-first sample's permutation). The executor makes one before
// a loop's round 0 and drops it when the loop returns, so nothing kept here
// outlives the loop. The stages of one wave share it from their goroutines.
// A nil LoopRun keeps nothing: outside a loop every operator builds afresh.
type LoopRun struct {
	mu   sync.Mutex
	kept map[*Operator]any
}

// Kept returns what op kept in this loop run, or nil.
func (r *LoopRun) Kept(op *Operator) any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kept[op]
}

// Keep stores v as op's value for the rest of the loop run, replacing what
// op kept before. On a nil LoopRun it does nothing.
func (r *LoopRun) Keep(op *Operator, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kept == nil {
		r.kept = map[*Operator]any{}
	}
	r.kept[op] = v
}
