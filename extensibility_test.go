package rheem

// Extensibility is a first-class citizen (Section 3 of the paper): plugging
// a new platform requires only (i) its execution operators and mappings and
// (ii) its channel with one conversion to and from an existing channel —
// no changes to the system's code, and no per-existing-platform glue
// (O(n), not O(n*m)). This test builds a brand-new toy platform from
// scratch and shows the optimizer routing work and data through it.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// toyVec is the toy platform's native data structure: a sorted int64
// vector (think: a minimalist column store).
type toyVec struct {
	vals []int64
}

var toyChannel = core.ChannelDescriptor{Name: "toyvec", Platform: "toydb", Reusable: true, AtRest: true}

// toyDriver is the whole platform: a core.Driver that declares its channel,
// conversions and mappings through the shared frame (driverutil/platform.go)
// and a driverutil.Engine[*toyVec] whose stages the shared harness runs. It
// executes only Filter and Sort — over pre-sorted vectors both are trivially
// cheap, which is the niche the optimizer can exploit.
type toyDriver struct{}

func (toyDriver) Name() string { return "toydb" }

func (toyDriver) ChannelDescriptors() []core.ChannelDescriptor {
	return []core.ChannelDescriptor{toyChannel}
}

// Conversions: exactly one each way, to the neutral collection channel.
func (d toyDriver) Conversions() []*core.Conversion {
	return []*core.Conversion{
		driverutil.Conv("toydb.load", "collection", "toyvec", 0.5, 0.0001, func(ds *core.SliceDataset, _ *core.Channel) (*core.Channel, error) {
			v := &toyVec{vals: make([]int64, 0, len(ds.Data))}
			for _, q := range ds.Data {
				n, ok := q.(int64)
				if !ok {
					return nil, fmt.Errorf("toydb: only int64 quanta, got %T", q)
				}
				v.vals = append(v.vals, n)
			}
			sort.Slice(v.vals, func(i, j int) bool { return v.vals[i] < v.vals[j] })
			return d.ToChannel(nil, v)
		}),
		driverutil.Conv("toydb.dump", "toyvec", "collection", 0.5, 0.0001, func(v *toyVec, _ *core.Channel) (*core.Channel, error) {
			out := make([]any, len(v.vals))
			for i, n := range v.vals {
				out[i] = n
			}
			return driverutil.CollectionOf(out), nil
		}),
	}
}

func (toyDriver) RegisterMappings(r *core.MappingRegistry) {
	driverutil.RegisterOps(r, "toydb", []string{"toyvec"}, "toyvec", []driverutil.Op{
		{Kind: core.KindFilter, Suffix: "filter", Cost: driverutil.FilterCost},
		{Kind: core.KindSort, Suffix: "sort", Cost: driverutil.SortCost},
	})
}

func (d toyDriver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	return driverutil.RunStage(d, stage, in)
}

func (toyDriver) FromChannel(ch *core.Channel) (*toyVec, error) {
	v, ok := ch.Payload.(*toyVec)
	if !ok {
		return nil, fmt.Errorf("toydb: expected toyvec input, got %T", ch.Payload)
	}
	return v, nil
}

func (toyDriver) Apply(op *core.Operator, in []*toyVec, round core.Round, counter *int64, sniff func(any)) (*toyVec, error) {
	out := in[0] // Sort: already sorted, toydb's superpower
	switch op.Kind {
	case core.KindSort:
	case core.KindFilter:
		out = &toyVec{}
		for _, n := range in[0].vals {
			if op.UDF.Pred(n) {
				out.vals = append(out.vals, n)
			}
		}
	default:
		return nil, fmt.Errorf("toydb: unsupported kind %s", op.Kind)
	}
	for _, n := range out.vals {
		*counter++
		if sniff != nil {
			sniff(n)
		}
	}
	return out, nil
}

func (toyDriver) ToChannel(_ *core.Operator, v *toyVec) (*core.Channel, error) {
	return core.NewChannel(toyChannel, v, int64(len(v.vals))), nil
}

func TestPluggingANewPlatform(t *testing.T) {
	ctx := fastCtx(t)
	// The one registration call the paper promises.
	if err := ctx.Registry.Register(toyDriver{}); err != nil {
		t.Fatal(err)
	}

	// A plan whose middle is pinned to the new platform; sources and sinks
	// stay wherever the optimizer likes. Data must flow collection ->
	// toyvec -> collection through the two new conversions — discovered via
	// the conversion graph, not via hand-written glue.
	data := make([]any, 500)
	for i := range data {
		data[i] = int64((i * 37) % 500)
	}
	b := ctx.NewPlan("with-toydb")
	out := b.LoadCollection("nums", data).
		Filter("keep-small", func(q any) bool { return q.(int64) < 100 }).WithTargetPlatform("toydb").
		Sort(nil).WithTargetPlatform("toydb").
		Map("stringify", func(q any) any { return fmt.Sprintf("v=%d", q.(int64)) })
	sink := out.CollectSink()

	ep, err := ctx.Optimize(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range ep.Platforms() {
		if p == "toydb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("toydb missing from plan platforms: %v", ep.Platforms())
	}

	res, err := ctx.Execute(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.CollectFrom(sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("filtered size = %d, want 100", len(got))
	}
	// toydb's Sort result must be genuinely ordered after the round trip.
	prev := int64(-1)
	for _, q := range got {
		var v int64
		fmt.Sscanf(q.(string), "v=%d", &v)
		if v < prev {
			t.Fatalf("output not sorted: %v after %v", v, prev)
		}
		prev = v
	}

	// The shared harness came with the platform: a panicking predicate pinned
	// to toydb fails the job, not the process.
	b = ctx.NewPlan("toydb-panic")
	b.LoadCollection("nums", data).
		Filter("boom", func(any) bool { panic("boom") }).WithTargetPlatform("toydb").
		CollectSink()
	if _, err := ctx.Execute(b.Plan()); err == nil || !strings.Contains(err.Error(), "UDF panic") {
		t.Fatalf("panicking toydb predicate: error %v, want a UDF panic error", err)
	}
}

func TestNewPlatformChosenOnMerit(t *testing.T) {
	// Without pins, the optimizer should route a Sort to toydb when the
	// cost table is told how cheap toydb sorting is.
	ctx := fastCtx(t)
	if err := ctx.Registry.Register(toyDriver{}); err != nil {
		t.Fatal(err)
	}
	// Teach the cost model the platform's profile (what the cost learner
	// would otherwise derive from logs): sorting pre-sorted vectors is free.
	ctx.Costs.Ops["toydb.sort"] = costParamsNear(0)
	ctx.Costs.Ops["toydb.filter"] = costParamsNear(0.00005)

	data := make([]any, 200000)
	for i := range data {
		data[i] = int64((i * 7919) % 200000)
	}
	b := ctx.NewPlan("merit")
	src := b.LoadCollection("nums", data).WithTargetPlatform("streams")
	sorted := src.Sort(nil) // free: the optimizer chooses
	sink := sorted.CollectSink()
	sink.TargetPlatform = "streams"
	ep, err := ctx.Optimize(b.Plan())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range b.Plan().Operators() {
		if op.Kind == core.KindSort {
			if got := ep.PlatformOf(op); got != "toydb" {
				t.Fatalf("sort assigned to %q, want toydb\n%s", got, ep)
			}
		}
	}
}

// costParamsNear builds an OpCostParams with the given per-quantum cost.
func costParamsNear(perQ float64) core.OpCostParams {
	return core.OpCostParams{CPUPerQuantum: perQ, FixedOverhead: 0.1}
}
