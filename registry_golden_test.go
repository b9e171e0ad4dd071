package rheem

// The optimizer's choices hang on what the platforms declare: which channels
// exist, which execution operator implements which logical kind over which
// channels, what each step costs by default, what each platform's resource
// units cost and what each conversion costs.
// TestRegistryGolden pins all of it, byte for byte, so a renamed mapping, a
// dropped in-channel or a changed cost constant is a visible diff of
// testdata/registry.golden rather than a silent change of plans.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/optimizer"
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

// renderRegistry prints one sorted line per channel descriptor, mapping step,
// platform and conversion of the registry. A mapping step carries the default
// cost table's price for it (fixed and per-quantum milliseconds): the cost
// the step declares at its platform's unit costs. A platform carries those
// unit costs and its monetary rate; its start-up cost is left out, since it
// differs between the two simulation modes.
func renderRegistry(reg *core.Registry) string {
	var lines []string
	for _, cd := range reg.Graph.Channels() {
		lines = append(lines, fmt.Sprintf("channel name=%s platform=%s reusable=%v at-rest=%v",
			cd.Name, cd.Platform, cd.Reusable, cd.AtRest))
	}
	ms := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	// A step's price is a product of two table entries: six significant
	// digits keep the floating-point noise of the product out of the file.
	price := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	costs := optimizer.DefaultCostTable(reg)
	for _, k := range allKinds {
		for _, alt := range reg.Mappings.Alternatives(&core.Operator{Kind: k}) {
			for i, st := range alt.Steps {
				fixed := costs.OpTimeMs(st, alt.Platform, 0)
				perQuantum := costs.OpTimeMs(st, alt.Platform, 1) - fixed
				lines = append(lines, fmt.Sprintf("mapping kind=%s platform=%s step=%d/%d name=%s step-kind=%s in=%s out=%s fixed-ms=%s per-quantum-ms=%s",
					k, alt.Platform, i+1, len(alt.Steps), st.Name, st.Kind, strings.Join(st.In, ","), st.Out, price(fixed), price(perQuantum)))
			}
		}
	}
	for _, d := range reg.Drivers() {
		u := costs.Units(d.Name())
		lines = append(lines, fmt.Sprintf("platform name=%s ms-per-cpu=%s ms-per-io=%s ms-per-net=%s ms-per-fixed=%s usd-per-hour=%s",
			d.Name(), ms(u.MsPerCPUUnit), ms(u.MsPerIOUnit), ms(u.MsPerNetUnit), ms(u.MsPerFixed), ms(u.UsdPerHour)))
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

// TestEveryStepDeclaresItsPrice: a step is priced by what it declares, so a
// mapping that declares nothing would be free to the optimizer.
func TestEveryStepDeclaresItsPrice(t *testing.T) {
	ctx := fastCtx(t)
	for _, k := range allKinds {
		for _, alt := range ctx.Registry.Mappings.Alternatives(&core.Operator{Kind: k}) {
			for _, st := range alt.Steps {
				if st.Cost == (core.OpCostParams{}) {
					t.Errorf("%s declares no cost", st.Name)
				}
				if fixed := ctx.Costs.OpTimeMs(st, alt.Platform, 0); fixed <= 0 {
					t.Errorf("%s has fixed price %v, want > 0", st.Name, fixed)
				}
			}
		}
	}
}
