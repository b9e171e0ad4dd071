package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sort"
)

// Plan fingerprinting: a canonical, structure-stable hash of an operator
// subtree, so equivalent subplans collide across jobs (and across process
// restarts). Two operators have the same fingerprint exactly when their
// subtrees are structurally identical: same operator kinds, labels, scalar
// parameters, UDF identities, and source datasets (name + version) wired in
// the same shape. The cross-job result cache (internal/rescache) keys on
// these fingerprints.
//
// Canonicalization rules (also documented in DESIGN.md):
//   - Every operator hash begins with the scheme tag fingerprintScheme, so a
//     hash computed under other rules (a peer running an older binary) can
//     only miss, never collide.
//   - The hash of an operator covers its kind, label, every kind-relevant
//     scalar parameter, the identity of each attached UDF, and the
//     fingerprints of its dataflow inputs in port order plus its broadcast
//     inputs in sorted order.
//   - UDF identity is the name each UDF was registered under, where a
//     frontend recorded one (UDFs.Names), plus the function's symbol name
//     (runtime.FuncForPC), which is stable across restarts of the same
//     binary. Closures share a symbol per code site, so the registered names
//     and the operator label keep differently-registered UDFs apart.
//   - Named sources (files, tables) hash their dataset name plus a version
//     supplied by the SourceVersion hook; bumping the version (explicit
//     invalidation) changes every fingerprint downstream of the dataset.
//   - Collection sources hash CollectionDigest of their content, so equal
//     inputs collide and different ones do not. The digest is computed when
//     the collection is registered (latin.Registry.RegisterCollection stamps
//     it on the sources it compiles) or, for a source that carries none, by
//     the fingerprinting pass — once per FingerprintOptions.Digests memo.
//   - Subtrees containing loops, loop placeholders (LoopInput/OuterRef), or
//     values the codec cannot encode are not fingerprintable: they are
//     omitted from the result, as is everything downstream of them.

// SourceRef names one source dataset a fingerprinted subtree reads, with
// the dataset version the fingerprint was computed at.
type SourceRef struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
}

// FPInfo is the fingerprint of one operator's subtree.
type FPInfo struct {
	// Hash is the canonical subtree hash, hex-encoded.
	Hash string
	// Sources lists the named source datasets the subtree reads (deduped,
	// sorted by name). Collection sources are content-hashed, not listed.
	Sources []SourceRef
	// Ops is the subtree's operators (the op itself plus everything it
	// transitively reads), in no particular order. Cost marking sums the
	// per-operator estimates over it.
	Ops []*Operator
}

// FingerprintOptions tune a FingerprintPlan pass.
type FingerprintOptions struct {
	// SourceVersion returns the current version of a named source dataset;
	// nil pins every version to 0.
	SourceVersion func(name string) uint64
	// Skip marks operators as unfingerprintable (e.g. cache-scan sources
	// substituted by a previous rewrite, which must not be re-cached under a
	// new identity). Everything downstream of a skipped operator is omitted.
	Skip map[*Operator]bool
	// Digests, when non-nil, remembers across passes the content digest of
	// every collection source that carries none, by operator, so a caller
	// that fingerprints one plan several times (a cache session) hashes each
	// such collection once; an un-encodable collection is remembered as "".
	// Nil hashes on every pass.
	Digests map[*Operator]string
}

// fingerprintScheme names the canonicalization rules and is hashed first.
// Change it whenever the rules change.
const fingerprintScheme = "fp2"

// FingerprintPlan computes the subtree fingerprint of every fingerprintable
// operator in the plan. Operators whose subtree contains a loop, a loop
// placeholder, a skipped operator, or un-encodable collection data are
// absent from the result.
func FingerprintPlan(p *Plan, opts FingerprintOptions) map[*Operator]*FPInfo {
	order, err := p.TopoOrder()
	if err != nil {
		return nil
	}
	out := make(map[*Operator]*FPInfo, len(order))
	for _, op := range order {
		if opts.Skip[op] || !fingerprintableKind(op, p) {
			continue
		}
		// All inputs (dataflow and broadcast) must themselves be
		// fingerprintable.
		ins := make([]*FPInfo, 0, len(op.Inputs()))
		ok := true
		for _, in := range op.Inputs() {
			info := out[in]
			if info == nil {
				ok = false
				break
			}
			ins = append(ins, info)
		}
		var bcs []*FPInfo
		if ok {
			for _, bc := range op.Broadcasts() {
				info := out[bc]
				if info == nil {
					ok = false
					break
				}
				bcs = append(bcs, info)
			}
		}
		if !ok {
			continue
		}
		info, err := fingerprintOp(op, ins, bcs, opts)
		if err != nil {
			continue
		}
		out[op] = info
	}
	return out
}

// fingerprintableKind rejects operators whose output is not a pure function
// of their fingerprinted inputs: loops (nested bodies with conditions),
// loop placeholders, and outer references.
func fingerprintableKind(op *Operator, p *Plan) bool {
	if op.Kind.IsLoop() || op.OuterRef != nil {
		return false
	}
	if op == p.LoopInput {
		return false
	}
	// A CollectionSource with nil payload is a placeholder (loop input or
	// outer reference), never a literal empty collection with semantics.
	if op.Kind == KindCollectionSource && op.Params.Collection == nil {
		return false
	}
	return true
}

// fingerprintOp hashes one operator given its input fingerprints.
func fingerprintOp(op *Operator, ins, bcs []*FPInfo, opts FingerprintOptions) (*FPInfo, error) {
	h := sha256.New()
	w := func(parts ...string) {
		for _, s := range parts {
			var lb [8]byte
			binary.LittleEndian.PutUint64(lb[:], uint64(len(s)))
			h.Write(lb[:])
			h.Write([]byte(s))
		}
	}
	w(fingerprintScheme, "op", string(op.Kind), op.Label, op.TargetPlatform)
	w(fmt.Sprintf("sel=%g", op.Selectivity))
	if err := hashParams(w, op, opts.Digests); err != nil {
		return nil, err
	}
	w(udfIdentity(&op.UDF))

	info := &FPInfo{Ops: []*Operator{op}}
	seenOps := map[*Operator]bool{op: true}
	seenSrc := map[string]uint64{}
	merge := func(in *FPInfo) {
		for _, o := range in.Ops {
			if !seenOps[o] {
				seenOps[o] = true
				info.Ops = append(info.Ops, o)
			}
		}
		for _, s := range in.Sources {
			seenSrc[s.Name] = s.Version
		}
	}
	for i, in := range ins {
		w(fmt.Sprintf("in%d", i), in.Hash)
		merge(in)
	}
	// Broadcast order is not semantically meaningful; sort for stability.
	bcHashes := make([]string, len(bcs))
	for i, bc := range bcs {
		bcHashes[i] = bc.Hash
		merge(bc)
	}
	sort.Strings(bcHashes)
	for _, bh := range bcHashes {
		w("bc", bh)
	}

	// Named source datasets: name + version.
	if name := sourceDataset(op); name != "" {
		var version uint64
		if opts.SourceVersion != nil {
			version = opts.SourceVersion(name)
		}
		w("src", name, fmt.Sprintf("v%d", version))
		seenSrc[name] = version
	}

	for name, version := range seenSrc {
		info.Sources = append(info.Sources, SourceRef{Name: name, Version: version})
	}
	sort.Slice(info.Sources, func(i, j int) bool { return info.Sources[i].Name < info.Sources[j].Name })
	info.Hash = hex.EncodeToString(h.Sum(nil))
	return info, nil
}

// SourceDatasetName returns the canonical dataset name an operator reads
// ("" for non-source operators and content-hashed collections).
func SourceDatasetName(op *Operator) string { return sourceDataset(op) }

func sourceDataset(op *Operator) string {
	switch op.Kind {
	case KindTextFileSource:
		return op.Params.Path
	case KindTableSource:
		return op.Params.Store + "." + op.Params.Table
	}
	return ""
}

// hashParams writes every kind-relevant scalar parameter. A collection
// source contributes the digest of its content; an un-encodable element
// makes the subtree unfingerprintable.
func hashParams(w func(...string), op *Operator, digests map[*Operator]string) error {
	p := op.Params
	w("path", p.Path, "table", p.Table, "store", p.Store)
	for _, c := range p.Columns {
		w(fmt.Sprintf("col%d", c))
	}
	w(fmt.Sprintf("sample=%d/%g/%s/seed%d", p.SampleSize, p.SampleFraction, p.SampleMethod, p.Seed))
	w(fmt.Sprintf("iters=%d/%d damp=%g ie=%s%s", p.Iterations, p.MaxIterations, p.DampingFactor, p.IEOp1, p.IEOp2))
	if p.Where != nil {
		w("where", p.Where.String())
	}
	if op.Kind == KindCollectionSource {
		digest := sourceDigest(op, digests)
		if digest == "" {
			return fmt.Errorf("core: fingerprint collection %q: un-encodable content", op.Label)
		}
		w("coll", digest)
	}
	return nil
}

// sourceDigest returns the content digest of a collection source: the one
// stamped on it, else the one memo remembers, else CollectionDigest computed
// now (and remembered, when there is a memo). "" means un-encodable content.
func sourceDigest(op *Operator, memo map[*Operator]string) string {
	if d := op.Params.CollectionDigest; d != "" {
		return d
	}
	if d, known := memo[op]; known {
		return d
	}
	d, _ := CollectionDigest(op.Params.Collection) // an error leaves d empty
	if memo != nil {
		memo[op] = d
	}
	return d
}

// CollectionDigest is the content hash of a collection: SHA-256, hex, over
// the quantum count and the binary codec's encoding of every quantum in
// order (the encoding is self-delimiting, so the concatenation is
// unambiguous). Equal content gives equal digests in any process; a quantum
// the codec cannot encode is an error. It is the only routine that hashes
// collection content: registries call it once when a collection is
// registered, fingerprinting calls it for sources that carry no digest.
func CollectionDigest(data []any) (string, error) {
	// Quanta are encoded into one buffer that is handed to the hash in
	// blocks, not quantum by quantum.
	const block = 32 << 10
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 2*block), uint64(len(data)))
	for _, q := range data {
		var err error
		if buf, err = AppendQuantumBinary(buf, q); err != nil {
			return "", fmt.Errorf("core: collection digest: %w", err)
		}
		if len(buf) >= block {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// funcSymbol returns the fully-qualified symbol name of a function value
// ("rheem/latin.glob..func1", "main.wordOf", ...), or "" when fn is not a
// non-nil func.
func funcSymbol(fn any) string {
	if fn == nil {
		return ""
	}
	v := reflect.ValueOf(fn)
	if v.Kind() != reflect.Func || v.IsNil() {
		return ""
	}
	f := runtime.FuncForPC(v.Pointer())
	if f == nil {
		return ""
	}
	return f.Name()
}

// udfIdentity derives a stable identity string for the operator's UDFs: the
// names they were registered under (when a frontend recorded them), then the
// symbol name of each non-nil function, tagged by role in UDFRoles order.
// Symbol names are stable across restarts of the same binary; two distinct
// closures created at the same code site share a symbol, which is why the
// registered names and the operator label are hashed alongside.
func udfIdentity(u *UDFs) string {
	s := fmt.Sprintf("names=%d:%s;", len(u.Names), u.Names)
	for _, r := range UDFRoles {
		fn := r.Get(u)
		if fn == nil {
			continue
		}
		name := funcSymbol(fn)
		if name == "" {
			name = "?"
		}
		s += r.Name + "=" + name + ";"
	}
	// Declarative forms: the expression text is the identity (the paired
	// opaque closures, when present, hash to one shared symbol anyway).
	if u.MapExpr != nil {
		s += "mapexpr=" + u.MapExpr.String() + ";"
	}
	if u.ReduceExpr != nil {
		s += "reduceexpr=" + u.ReduceExpr.String() + ";"
	}
	return s
}
