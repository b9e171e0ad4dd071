package latin

import (
	"fmt"
	"testing"

	"rheem/internal/core"
)

// BenchmarkFingerprintRegistered20k measures one fingerprinting pass over
// the standing benchmark's serve_mixed template 1 (filter, two-input join,
// map, reduce-by, sort) compiled from 20 k registered records — what every
// job on the serving path pays before its cache probe. The collections were
// hashed when they were registered, so a pass costs the operators' hashes
// only.
func BenchmarkFingerprintRegistered20k(b *testing.B) {
	reg := NewRegistry()
	reg.RegisterKey("groupOf", func(q any) any { return q.(core.Record)[2] })
	reg.RegisterKey("dimKey", func(q any) any { return q.(core.Record)[0] })
	reg.RegisterKey("first", func(q any) any { return q.(core.Record)[0] })
	reg.RegisterMap("weigh", func(q any) any { return q })
	reg.RegisterReduce("addWeighed", func(a, b any) any { return a })
	recs := make([]any, 20000)
	for i := range recs {
		recs[i] = core.Record{int64(i % 9973), float64(i%977) * 0.051, fmt.Sprintf("g%d", i%7)}
	}
	dims := make([]any, 7)
	for i := range dims {
		dims[i] = core.Record{fmt.Sprintf("g%d", i), 0.5 + float64(i)/14}
	}
	reg.RegisterCollection("recs", recs)
	reg.RegisterCollection("dims", dims)
	compiled, err := Compile(`recs = load collection recs;
dims = load collection dims;
f = filter recs where col 0 > 1234;
j = join f, dims on groupOf, dimKey;
w = map j using weigh;
agg = reduceby w key first using addWeighed;
ranked = sort agg;
collect ranked;`, reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fps := core.FingerprintPlan(compiled.Plan, core.FingerprintOptions{}); fps[compiled.Sinks["ranked"]] == nil {
			b.Fatal("sink not fingerprinted")
		}
	}
}
