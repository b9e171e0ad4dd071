package driverutil

import (
	"fmt"

	"rheem/internal/core"
)

// Pipeline fusion. The compiled chain kernel is the only way the narrow,
// stateless, single-input kinds (map / filter / flatmap / project) and the
// reduce-by execute: PlanFusion covers every such operator of a stage with a
// maximal chain and FusedChain.Compile turns each chain into a single-pass
// kernel — one closure applies the whole chain per quantum, with filter
// compaction happening in place in a single output buffer sized from the
// input partition. Engines run the kernels through ChainEngine; runStage
// hands them whole chains and never a narrow operator or a reduce-by on its
// own.

// FusedChain is a maximal run of fusible operators inside one stage, in
// dataflow order, optionally terminated by an absorbed reduce-by the engine
// executes as part of the same pass. A reduce-by no narrow run feeds is the
// chain with zero narrow steps: Ops empty, Agg set.
type FusedChain struct {
	Ops []*core.Operator
	// Agg, when set, is a KindReduceBy operator that consumes the tail's
	// output inside the chain: the engine feeds the kernel's survivors
	// straight into grouped accumulators (a declarative UDF.ReduceExpr) or a
	// keyed fold (the Key and Reduce UDFs) instead of materializing them. Nil
	// for pure narrow chains.
	Agg *core.Operator
}

// Head returns the chain's first operator (the one whose input feeds the
// kernel).
func (c *FusedChain) Head() *core.Operator {
	if len(c.Ops) == 0 {
		return c.Agg
	}
	return c.Ops[0]
}

// Tail returns the chain's last narrow operator; the chain must have one.
func (c *FusedChain) Tail() *core.Operator { return c.Ops[len(c.Ops)-1] }

// Out returns the operator whose output the chain produces: the absorbed
// aggregation when present, the narrow tail otherwise.
func (c *FusedChain) Out() *core.Operator {
	if c.Agg != nil {
		return c.Agg
	}
	return c.Tail()
}

// AllOps returns the chain's operators including the absorbed aggregation.
func (c *FusedChain) AllOps() []*core.Operator {
	if c.Agg == nil {
		return c.Ops
	}
	return append(append([]*core.Operator{}, c.Ops...), c.Agg)
}

func (c *FusedChain) String() string {
	s := ""
	for i, op := range c.AllOps() {
		if i > 0 {
			s += " → "
		}
		s += op.String()
	}
	return s
}

// ChainEngine is optionally implemented by engines that can execute a fused
// chain natively. in is the head operator's (single) resolved input;
// counters are per-chain-op output-cardinality counters aligned with
// chain.AllOps() — one extra trailing counter for the absorbed reduce-by
// when chain.Agg is set. The returned data stands for chain.Out()'s output.
// The kernel is a VectorKernel: for pure narrow chains engines just call
// Run, which takes the columnar path when the chain's leading steps
// vectorized and the partition allows it, and the row path otherwise. A kernel that Reduces runs over its
// partitions at rest through RunChainParts, which owns the per-partition
// fold, the exchange of partials and the counting of the output.
type ChainEngine[T any] interface {
	ApplyChain(chain *FusedChain, kernel *VectorKernel, in T, counters []*int64) (T, error)
}

// fusible reports whether op is a step of a fused chain: a narrow kind in
// the operator table. Sniffed operators (exploratory-mode checkpoints) stay
// fusible: the kernel invokes the sniffer at the step's emission points (see
// SetSniff), so every quantum is still observed.
func fusible(op *core.Operator) bool { return op.Kind.IsNarrow() }

// reduceBy reports whether op is a reduce-by a chain absorbs as its
// terminator: every one, declarative or UDF.
func reduceBy(op *core.Operator) bool { return op.Kind == core.KindReduceBy }

// isTerminal reports whether op's output must be materialized at stage end.
func isTerminal(stage *core.Stage, op *core.Operator) bool {
	for _, t := range stage.TerminalOuts {
		if t == op {
			return true
		}
	}
	return false
}

// PlanFusion walks the stage's topo-ordered ops and returns the maximal
// fusible chains, keyed by chain head, plus the set of non-head operators
// each chain covers. Every fusible operator lands in exactly one chain, a
// lone one in a chain of length one. A chain extends from cur to next while
// cur feeds exactly next (single consumer, not a terminal output) and next is
// a fusible operator consuming only cur. A reduce-by directly downstream of
// the chain is absorbed as its Agg terminator, so engines aggregate the
// kernel's survivors without materializing them; one that no chain can
// absorb (its producer is wide, terminal or shared) heads a chain with zero
// narrow steps.
func PlanFusion(stage *core.Stage) (chains map[*core.Operator]*FusedChain, covered map[*core.Operator]bool) {
	chains = map[*core.Operator]*FusedChain{}
	covered = map[*core.Operator]bool{}
	for _, op := range stage.Ops {
		if covered[op] {
			continue
		}
		if reduceBy(op) {
			chains[op] = &FusedChain{Agg: op}
			continue
		}
		if !fusible(op) {
			continue
		}
		chain := []*core.Operator{op}
		cur := op
		for {
			if isTerminal(stage, cur) || len(cur.Outputs()) != 1 {
				break
			}
			next := cur.Outputs()[0]
			if !stage.Contains(next) || !fusible(next) {
				break
			}
			if len(next.Inputs()) != 1 || next.Inputs()[0] != cur {
				break
			}
			chain = append(chain, next)
			cur = next
		}
		agg := absorbableAgg(stage, cur)
		chains[op] = &FusedChain{Ops: chain, Agg: agg}
		for _, c := range chain[1:] {
			covered[c] = true
		}
		if agg != nil {
			covered[agg] = true
		}
	}
	return chains, covered
}

// absorbableAgg returns the reduce-by that can terminate a chain ending at
// cur: cur's sole consumer, in-stage, consuming only cur.
func absorbableAgg(stage *core.Stage, cur *core.Operator) *core.Operator {
	if isTerminal(stage, cur) || len(cur.Outputs()) != 1 {
		return nil
	}
	next := cur.Outputs()[0]
	if !reduceBy(next) || !stage.Contains(next) || len(next.Inputs()) != 1 || next.Inputs()[0] != cur {
		return nil
	}
	return next
}

// fusedStep is one compiled operator of a chain.
type fusedStep struct {
	kind  core.Kind
	mapf  func(any) any
	pred  func(any) bool
	flat  func(any) []any
	cols  []int
	sniff func(any)      // when set, observes every quantum this step emits
	op    *core.Operator // for error messages
}

// FusedKernel is a compiled chain: Run applies every step per quantum in a
// single pass over a partition.
type FusedKernel struct {
	steps []fusedStep
}

// Compile compiles the chain into the kernel engines run: the narrow steps
// (CompileChain), their vectorized prefix and the absorbed reduce-by.
func (c *FusedChain) Compile() (*VectorKernel, error) {
	row, err := CompileChain(c.Ops)
	if err != nil {
		return nil, err
	}
	return CompileVector(c.Ops, c.Agg, row), nil
}

// CompileChain compiles the chain's narrow operators into a single-pass
// kernel. Their UDFs were checked against the operator table before any
// kernel compiles (RunStage); the default arm guards against a narrow kind
// that has no compilation rule.
func CompileChain(ops []*core.Operator) (*FusedKernel, error) {
	k := &FusedKernel{steps: make([]fusedStep, 0, len(ops))}
	for _, op := range ops {
		st := fusedStep{kind: op.Kind, op: op}
		switch op.Kind {
		case core.KindMap:
			st.mapf = op.UDF.Map
		case core.KindFilter:
			st.pred = PredOf(op)
		case core.KindFlatMap:
			st.flat = op.UDF.FlatMap
		case core.KindProject:
			st.cols = op.Params.Columns // nil means identity, like Project
		default:
			return nil, fmt.Errorf("fuse: %s kind %s is not fusible", op, op.Kind)
		}
		k.steps = append(k.steps, st)
	}
	return k, nil
}

// Len returns the number of steps (chain operators) in the kernel.
func (k *FusedKernel) Len() int { return len(k.steps) }

// SetSniff attaches an observer to step i: it is invoked once per quantum
// the step emits, the engines' sniffer contract. Engines may run the kernel
// from several goroutines, and Engine.Apply calls sniffers from a single
// goroutine at a time — the caller must pass a function that provides its
// own serialization (runChain wraps the stage sniffer in a per-chain mutex).
// Set sniffs before handing the kernel to ApplyChain; the kernel itself is
// read-only during Run.
func (k *FusedKernel) SetSniff(i int, fn func(any)) { k.steps[i].sniff = fn }

// Tail returns a kernel sharing steps[from:], preserving attached sniffs.
// relstore uses it to fuse the remainder of a chain after pushing the head
// filter into an index scan.
func (k *FusedKernel) Tail(from int) *FusedKernel {
	return &FusedKernel{steps: k.steps[from:]}
}

// StepSniff returns step i's observer (nil when unset).
func (k *FusedKernel) StepSniff(i int) func(any) { return k.steps[i].sniff }

// Run applies the whole chain to one partition in a single pass. counts, if
// non-nil, must have Len() entries; counts[i] is incremented once per
// quantum the i-th step emits, yielding per-operator output cardinalities.
// buf, when non-nil, is reused as the output buffer (appended-to from length
// 0 by the caller's convention: pass buf[:0]); otherwise a fresh buffer with
// the input partition's capacity is allocated. Filtered-out quanta are simply never appended, so
// compaction is inherent — survivors land contiguously.
func (k *FusedKernel) Run(part []any, counts []int64, buf []any) []any {
	out := buf
	if out == nil {
		out = make([]any, 0, len(part))
	}
	for _, q := range part {
		out = k.emit(0, q, counts, out)
	}
	return out
}

// emit pushes one quantum through steps[i:], appending whatever survives.
// Flatmap steps recurse per produced quantum so later steps see each one
// individually.
func (k *FusedKernel) emit(i int, q any, counts []int64, out []any) []any {
	for ; i < len(k.steps); i++ {
		st := &k.steps[i]
		switch st.kind {
		case core.KindMap:
			q = st.mapf(q)
		case core.KindFilter:
			if !st.pred(q) {
				return out
			}
		case core.KindFlatMap:
			for _, r := range st.flat(q) {
				if counts != nil {
					counts[i]++
				}
				if st.sniff != nil {
					st.sniff(r)
				}
				out = k.emit(i+1, r, counts, out)
			}
			return out
		case core.KindProject:
			if st.cols != nil {
				rec, ok := q.(core.Record)
				if !ok {
					panic(fmt.Sprintf("project %s: quantum %T is not a Record", st.op, q))
				}
				proj := make(core.Record, len(st.cols))
				for j, c := range st.cols {
					proj[j] = rec[c]
				}
				q = proj
			}
		}
		if counts != nil {
			counts[i]++
		}
		if st.sniff != nil {
			st.sniff(q)
		}
	}
	return append(out, q)
}
