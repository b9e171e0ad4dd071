package rheem

// The optimizer's choices hang on what the platforms declare: which channels
// exist, which execution operator implements which logical kind over which
// channels, and what each conversion costs. TestRegistryGolden pins all of it,
// byte for byte, so a renamed mapping, a dropped in-channel or a changed cost
// constant is a visible diff of testdata/registry.golden rather than a silent
// change of plans.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rheem/internal/core"
)

// allKinds lists every logical kind a bundled platform can map.
var allKinds = []core.Kind{
	core.KindTextFileSource, core.KindCollectionSource, core.KindTableSource,
	core.KindMap, core.KindFlatMap, core.KindFilter, core.KindMapPart, core.KindSample,
	core.KindDistinct, core.KindSort, core.KindCount, core.KindReduce, core.KindReduceBy,
	core.KindGroupBy, core.KindZipWithID, core.KindCache, core.KindProject,
	core.KindJoin, core.KindIEJoin, core.KindCartesian, core.KindUnion, core.KindIntersect,
	core.KindCoGroup, core.KindRepeat, core.KindDoWhile, core.KindPageRank,
	core.KindCollectionSink, core.KindTextFileSink,
}

// renderRegistry prints one sorted line per channel descriptor, mapping step
// and conversion of the registry.
func renderRegistry(reg *core.Registry) string {
	var lines []string
	for _, cd := range reg.Graph.Channels() {
		lines = append(lines, fmt.Sprintf("channel name=%s platform=%s reusable=%v at-rest=%v",
			cd.Name, cd.Platform, cd.Reusable, cd.AtRest))
	}
	for _, k := range allKinds {
		for _, alt := range reg.Mappings.DirectAlternatives(&core.Operator{Kind: k}) {
			for i, st := range alt.Steps {
				lines = append(lines, fmt.Sprintf("mapping kind=%s platform=%s step=%d/%d name=%s step-kind=%s in=%s out=%s covers=%d",
					k, alt.Platform, i+1, len(alt.Steps), st.Name, st.Kind, strings.Join(st.In, ","), st.Out, alt.Covers))
			}
		}
	}
	ms := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, d := range reg.Drivers() {
		for _, cv := range d.Conversions() {
			lines = append(lines, fmt.Sprintf("conversion name=%s from=%s to=%s fixed-ms=%s per-quantum-ms=%s",
				cv.Name, cv.From, cv.To, ms(cv.FixedCostMs), ms(cv.PerQuantumMs)))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func TestRegistryGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		t.Fatal(err)
	}
	// Latencies are not part of the registry: both simulation modes declare
	// the identical platforms.
	for _, fast := range []bool{false, true} {
		ctx, err := NewContext(Config{FastSimulation: fast})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRegistry(ctx.Registry); got != string(want) {
			t.Errorf("FastSimulation=%v: registry differs from testdata/registry.golden; it now reads:\n%s", fast, got)
		}
	}
}
