package core

import (
	"strings"
	"testing"
)

// wcUDFs builds package-level (symbol-named) UDFs so fingerprints involving
// them are comparable across plan instances.
func fpSplit(q any) []any { return []any{q} }
func fpKey(q any) any     { return q }
func fpSum(a, b any) any  { return a }

// buildFPPlan constructs a small WordCount-shaped plan; two calls produce
// structurally identical plans with distinct operator pointers.
func buildFPPlan(path string) (*Plan, *Operator) {
	p := NewPlan("wc")
	src := p.Add(&Operator{Kind: KindTextFileSource, Label: "lines", Params: Params{Path: path}})
	fm := p.Add(&Operator{Kind: KindFlatMap, Label: "split", UDF: UDFs{FlatMap: fpSplit}})
	rb := p.Add(&Operator{Kind: KindReduceBy, Label: "count", UDF: UDFs{Key: fpKey, Reduce: fpSum}})
	sink := p.Add(&Operator{Kind: KindCollectionSink, Label: "out"})
	p.Chain(src, fm, rb, sink)
	return p, sink
}

func TestFingerprintStructuralEquivalence(t *testing.T) {
	p1, sink1 := buildFPPlan("dfs://words.txt")
	p2, sink2 := buildFPPlan("dfs://words.txt")
	fp1 := FingerprintPlan(p1, FingerprintOptions{})
	fp2 := FingerprintPlan(p2, FingerprintOptions{})
	if fp1[sink1] == nil || fp2[sink2] == nil {
		t.Fatalf("sink not fingerprinted: %v %v", fp1[sink1], fp2[sink2])
	}
	if fp1[sink1].Hash != fp2[sink2].Hash {
		t.Errorf("structurally identical plans produced different fingerprints:\n%s\n%s", fp1[sink1].Hash, fp2[sink2].Hash)
	}
	// The subtree must cover all four operators and name the source dataset.
	if got := len(fp1[sink1].Ops); got != 4 {
		t.Errorf("sink subtree covers %d ops, want 4", got)
	}
	srcs := fp1[sink1].Sources
	if len(srcs) != 1 || srcs[0].Name != "dfs://words.txt" || srcs[0].Version != 0 {
		t.Errorf("sink sources = %+v, want [{dfs://words.txt 0}]", srcs)
	}
}

func TestFingerprintParamSensitivity(t *testing.T) {
	base, sinkBase := buildFPPlan("dfs://words.txt")
	fpBase := FingerprintPlan(base, FingerprintOptions{})[sinkBase].Hash

	// A different source path must change every downstream fingerprint.
	other, sinkOther := buildFPPlan("dfs://other.txt")
	fpOther := FingerprintPlan(other, FingerprintOptions{})[sinkOther].Hash
	if fpOther == fpBase {
		t.Error("different source path produced an identical fingerprint")
	}

	// A bumped source version must change the fingerprint too.
	versioned, sinkV := buildFPPlan("dfs://words.txt")
	fpV := FingerprintPlan(versioned, FingerprintOptions{
		SourceVersion: func(name string) uint64 { return 7 },
	})[sinkV].Hash
	if fpV == fpBase {
		t.Error("bumped source version produced an identical fingerprint")
	}

	// A different operator label (distinct UDF registration) must differ.
	relabeled, sinkR := buildFPPlan("dfs://words.txt")
	relabeled.Operators()[1].Label = "tokenize"
	fpR := FingerprintPlan(relabeled, FingerprintOptions{})[sinkR].Hash
	if fpR == fpBase {
		t.Error("different operator label produced an identical fingerprint")
	}
}

func TestFingerprintCollectionContent(t *testing.T) {
	pa, sa := collPlan([]any{int64(1), int64(2)}, "")
	pb, sb := collPlan([]any{int64(1), int64(2)}, "")
	pc, sc := collPlan([]any{int64(1), int64(3)}, "")
	ha := FingerprintPlan(pa, FingerprintOptions{})[sa].Hash
	hb := FingerprintPlan(pb, FingerprintOptions{})[sb].Hash
	hc := FingerprintPlan(pc, FingerprintOptions{})[sc].Hash
	if ha != hb {
		t.Error("identical collection content produced different fingerprints")
	}
	if ha == hc {
		t.Error("different collection content produced identical fingerprints")
	}
}

// collPlan is source -> sink over data; digest, when non-empty, is stamped on
// the source the way a registry does.
func collPlan(data []any, digest string) (*Plan, *Operator) {
	p := NewPlan("coll")
	src := p.Add(&Operator{Kind: KindCollectionSource, Label: "data",
		Params: Params{Collection: data, CollectionDigest: digest}})
	sink := p.Add(&Operator{Kind: KindCollectionSink, Label: "out"})
	p.Chain(src, sink)
	return p, sink
}

// TestFingerprintStampedDigestEqualsHashedContent: a source that carries the
// digest of its content (the registry path) and one that carries none (the
// fluent path) are the same source to the cache.
func TestFingerprintStampedDigestEqualsHashedContent(t *testing.T) {
	data := []any{Record{int64(1), "a"}, Record{int64(2), "b"}, KV{Key: "k", Value: 1.5}}
	digest, err := CollectionDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	stamped, sinkS := collPlan(data, digest)
	fluent, sinkF := collPlan(append([]any(nil), data...), "")
	hs := FingerprintPlan(stamped, FingerprintOptions{})[sinkS].Hash
	hf := FingerprintPlan(fluent, FingerprintOptions{})[sinkF].Hash
	if hs != hf {
		t.Errorf("stamped and hashed sources over equal content differ:\n%s\n%s", hs, hf)
	}
	other, err := CollectionDigest(append(data[:2:2], KV{Key: "k", Value: 2.5}))
	if err != nil {
		t.Fatal(err)
	}
	changed, sinkC := collPlan(data, other)
	if FingerprintPlan(changed, FingerprintOptions{})[sinkC].Hash == hs {
		t.Error("a different digest produced an identical fingerprint")
	}
}

// TestCollectionDigest: the digest depends on content and order only, across
// the block boundary of its buffered hashing too.
func TestCollectionDigest(t *testing.T) {
	mk := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = Record{int64(i), float64(i) / 3, "a fairly long string field to fill hash blocks"}
		}
		return out
	}
	a, err := CollectionDigest(mk(5000))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := CollectionDigest(mk(5000)); a != b {
		t.Error("equal content, different digests")
	}
	swapped := mk(5000)
	swapped[10], swapped[4000] = swapped[4000], swapped[10]
	if b, _ := CollectionDigest(swapped); a == b {
		t.Error("reordered content, equal digests")
	}
	if b, _ := CollectionDigest(mk(4999)); a == b {
		t.Error("a shorter collection, equal digests")
	}
	// The count is hashed, so moving a boundary between quanta shows.
	one, _ := CollectionDigest([]any{[]any{int64(1), int64(2)}})
	two, _ := CollectionDigest([]any{[]any{int64(1)}, []any{int64(2)}})
	if one == two {
		t.Error("differently nested content, equal digests")
	}
	if _, err := CollectionDigest([]any{int64(1), make(chan int)}); err == nil {
		t.Error("an un-encodable quantum produced a digest")
	}
}

// TestFingerprintUnencodableCollection: a collection the codec cannot encode
// leaves its whole subtree out of the result, and with a memo the attempt is
// made once.
func TestFingerprintUnencodableCollection(t *testing.T) {
	p, sink := collPlan([]any{int64(1), make(chan int)}, "")
	memo := map[*Operator]string{}
	for pass := 0; pass < 2; pass++ {
		fps := FingerprintPlan(p, FingerprintOptions{Digests: memo})
		if len(fps) != 0 {
			t.Errorf("pass %d: %d operators fingerprinted over un-encodable content (sink: %v)", pass, len(fps), fps[sink])
		}
	}
	if d, known := memo[p.Operators()[0]]; !known || d != "" {
		t.Errorf("memo = %q, %v; want the failure remembered as \"\"", d, known)
	}
}

func TestFingerprintSkipPoisonsDownstream(t *testing.T) {
	p, sink := buildFPPlan("dfs://words.txt")
	src := p.Operators()[0]
	fps := FingerprintPlan(p, FingerprintOptions{Skip: map[*Operator]bool{src: true}})
	if len(fps) != 0 {
		t.Errorf("skipping the source should poison all %d downstream fingerprints, got %d", 4, len(fps))
	}
	_ = sink
}

func TestFingerprintLoopsExcluded(t *testing.T) {
	p := NewPlan("loop")
	src := p.Add(&Operator{Kind: KindCollectionSource, Label: "init", Params: Params{Collection: []any{int64(0)}}})
	body := NewPlan("body")
	in := body.Add(&Operator{Kind: KindCollectionSource, Label: "loop-in"})
	step := body.Add(&Operator{Kind: KindMap, Label: "step", UDF: UDFs{Map: fpKey}})
	body.Chain(in, step)
	body.LoopInput, body.LoopOutput = in, step
	loop := p.Add(&Operator{Kind: KindRepeat, Label: "iterate", Params: Params{Iterations: 3}, Body: body})
	sink := p.Add(&Operator{Kind: KindCollectionSink, Label: "out"})
	p.Chain(src, loop, sink)

	fps := FingerprintPlan(p, FingerprintOptions{})
	if fps[loop] != nil {
		t.Error("loop operator must not be fingerprintable")
	}
	if fps[sink] != nil {
		t.Error("sink downstream of a loop must not be fingerprintable")
	}
	if fps[src] == nil {
		t.Error("source upstream of the loop should still be fingerprintable")
	}
}

// TestFingerprintGolden pins the canonical hash of a UDF-free plan. This
// guards restart stability (and unintentional canonicalization changes):
// the hash depends only on operator kinds, labels, params, wiring, and the
// quantum codec — never on process state. Update the constant only when the
// canonicalization rules deliberately change.
func TestFingerprintGolden(t *testing.T) {
	p := NewPlan("golden")
	src := p.Add(&Operator{Kind: KindCollectionSource, Label: "nums",
		Params: Params{Collection: []any{int64(1), int64(2), int64(3)}}})
	dist := p.Add(&Operator{Kind: KindDistinct, Label: "dedup"})
	cnt := p.Add(&Operator{Kind: KindCount, Label: "count"})
	sink := p.Add(&Operator{Kind: KindCollectionSink, Label: "out"})
	p.Chain(src, dist, cnt, sink)

	fps := FingerprintPlan(p, FingerprintOptions{})
	info := fps[sink]
	if info == nil {
		t.Fatal("golden plan sink not fingerprinted")
	}
	// Re-pinned for scheme "fp2": the scheme tag is hashed first, a
	// collection source contributes CollectionDigest of its content, and the
	// UDF identity begins with the registered names.
	const golden = "7ba5949e5aa554ea9931c13b03c17ce0ada03cfa48844a8ce74675fafe6e4a6c"
	if info.Hash != golden {
		t.Errorf("golden fingerprint drifted:\n got %s\nwant %s", info.Hash, golden)
	}
}

func TestFingerprintSinkRewireChangesHash(t *testing.T) {
	// Rewiring a sink onto a different subtree must change its fingerprint
	// (the substitution pass relies on this).
	p, sink := buildFPPlan("dfs://words.txt")
	before := FingerprintPlan(p, FingerprintOptions{})[sink].Hash
	scan := p.Add(&Operator{Kind: KindCollectionSource, Label: "replacement",
		Params: Params{Collection: []any{"x"}}})
	p.RewireInput(sink, 0, scan)
	removed := p.RemoveUnreachable()
	if len(removed) != 3 {
		t.Errorf("expected 3 pruned operators, got %d", len(removed))
	}
	after := FingerprintPlan(p, FingerprintOptions{})[sink].Hash
	if after == before {
		t.Error("rewired sink kept its old fingerprint")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("rewired plan invalid: %v", err)
	}
	if !strings.Contains(p.String(), "replacement") {
		t.Error("replacement source missing from plan")
	}
}
