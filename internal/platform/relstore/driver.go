package relstore

import (
	"fmt"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// Platform is the platform name this driver registers under.
const Platform = "relstore"

// TableRef is the payload of relation channels: a base table within a store,
// or a result set — a stage's result or a loaded collection — held by the
// channel itself. Either way the channel is a relation: which channel an
// operator emits is declared by its mapping, never decided by the data. A
// result set is never written into the store as a table: nothing would drop
// it, and every job would leave its intermediate rows on the heap for good.
type TableRef struct {
	Store *Store
	Table string

	result []any // the rows, when Store is nil
}

// Rows materializes the referenced table's rows as quanta. It also serves
// generic consumers (tests, the executor's collectors) that only know the
// interface { Rows() ([]any, error) }.
func (ref TableRef) Rows() ([]any, error) { return ref.scan(nil, nil, 1) }

// scan reads the referenced table as quanta, projection and predicate pushed
// into the scan.
func (ref TableRef) scan(cols []int, where *core.Predicate, workers int) ([]any, error) {
	if ref.Store == nil {
		return ref.result, nil // never pushed into: FromChannel hands it on as a row set
	}
	t, err := ref.Store.Table(ref.Table)
	if err != nil {
		return nil, err
	}
	recs, err := t.Scan(cols, where, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]any, len(recs))
	for i, r := range recs {
		rows[i] = r
	}
	return rows, nil
}

// LoadMsPerRow is the simulated cost of bulk-loading one row, the price of the
// relstore.load conversion. Bulk loads are expensive (the polystore lesson).
const LoadMsPerRow = 0.012

// RelationChannel is the store's native channel: a base table or a result
// set. Data is at rest and reusable.
var RelationChannel = core.ChannelDescriptor{Name: "relation", Platform: Platform, Reusable: true, AtRest: true}

// Config tunes the engine.
type Config struct {
	// Workers bounds intra-query parallelism (the experiment sets the
	// Postgres "parallel query" knob to 4). Default 4.
	Workers int
	// Latency is the simulated latency; the zero value is none and Paper is
	// the paper's testbed.
	Latency driverutil.Latency
}

// Paper is the store's latency on the paper's testbed: every query pays its
// planning and round trip, and one node with four workers runs at half the
// capacity of the cluster the host plays (see streams.Paper).
var Paper = driverutil.Latency{StageMs: 1.5, Slowdown: 2}

// UnitCosts implements core.UnitCoster: one node with limited workers.
func (d *Driver) UnitCosts() core.PlatformUnitCosts {
	return core.PlatformUnitCosts{MsPerCPUUnit: 0.5, MsPerIOUnit: 0.6, MsPerNetUnit: 1.5, MsPerFixed: 1, UsdPerHour: 2}
}

// Driver is the relational-store platform driver. It executes only
// relational operator kinds; plans containing arbitrary UDF transformations
// must (partially) run elsewhere. The embedded Boot is its running latency
// and its core.StartupCoster.
type Driver struct {
	Conf   Config
	stores map[string]*Store
	driverutil.Boot
}

// New creates a driver hosting the given stores (nil is allowed; stores can
// be attached later with Attach).
func New(conf Config, stores ...*Store) *Driver {
	if conf.Workers <= 0 {
		conf.Workers = 4
	}
	d := &Driver{Conf: conf, stores: map[string]*Store{}, Boot: driverutil.Boot{Latency: conf.Latency}}
	for _, s := range stores {
		d.stores[s.Name] = s
	}
	return d
}

// Attach registers a store instance with the driver.
func (d *Driver) Attach(s *Store) { d.stores[s.Name] = s }

// StoreByName returns the named store instance; an empty name returns the
// sole store when exactly one is attached.
func (d *Driver) StoreByName(name string) (*Store, error) {
	if name == "" {
		if len(d.stores) == 1 {
			for _, s := range d.stores {
				return s, nil
			}
		}
		return nil, fmt.Errorf("relstore: ambiguous store (have %d attached)", len(d.stores))
	}
	s, ok := d.stores[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no store %q attached", name)
	}
	return s, nil
}

// Name implements core.Driver.
func (d *Driver) Name() string { return Platform }

// ChannelDescriptors implements core.Driver.
func (d *Driver) ChannelDescriptors() []core.ChannelDescriptor {
	return []core.ChannelDescriptor{RelationChannel}
}

// Conversions implements core.Driver: exporting a relation to a driver
// collection (a full result fetch over the wire) and importing a collection
// of records as a relation (a bulk load).
func (d *Driver) Conversions() []*core.Conversion {
	return []*core.Conversion{
		driverutil.Conv("relstore.export", "relation", "collection", 2, 0.003, func(ref TableRef, _ *core.Channel) (*core.Channel, error) {
			data, err := ref.scan(nil, nil, d.Conf.Workers)
			if err != nil {
				return nil, err
			}
			return driverutil.CollectionOf(data), nil
		}),
		{
			Name: "relstore.load", From: "collection", To: "relation",
			FixedCostMs: 5, PerQuantumMs: LoadMsPerRow,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				for _, q := range data {
					if _, ok := q.(core.Record); !ok {
						return nil, fmt.Errorf("relstore: cannot load %T quanta into a relation", q)
					}
				}
				return resultSet(data), nil
			},
		},
	}
}

// resultSet is the relation channel over rows held by the channel.
func resultSet(rows []any) *core.Channel {
	return core.NewChannel(RelationChannel, TableRef{result: rows}, int64(len(rows)))
}

// RegisterMappings implements core.Driver: only relational kinds.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	driverutil.RegisterOps(r, Platform, []string{"relation"}, "relation", []driverutil.Op{
		{Kind: core.KindTableSource, Suffix: "table-scan", Cost: driverutil.SourceCost},
		{Kind: core.KindFilter, Suffix: "filter", Cost: driverutil.FilterCost},
		{Kind: core.KindProject, Suffix: "project", Cost: driverutil.MapCost},
		{Kind: core.KindJoin, Suffix: "hash-join", Cost: driverutil.JoinCost},
		{Kind: core.KindReduceBy, Suffix: "hash-agg", Cost: driverutil.GroupCost},
		{Kind: core.KindGroupBy, Suffix: "group", Cost: driverutil.GroupCost},
		{Kind: core.KindSort, Suffix: "sort", Cost: driverutil.SortCost},
		{Kind: core.KindDistinct, Suffix: "distinct", Cost: driverutil.GroupCost},
		{Kind: core.KindCount, Suffix: "count", Cost: driverutil.CountCost},
		{Kind: core.KindCollectionSink, Suffix: "fetch", Out: "collection", Cost: driverutil.SinkCost},
	})
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	return driverutil.Execute(&d.Boot, &engine{driver: d}, stage, in)
}

// rel is the engine's native data: a table reference still in the store
// (scannable with push-down) — only ever a stage input — or a row set, which
// is what every operator produces.
type rel struct {
	ref  *TableRef
	rows []any // Records
}

type engine struct {
	driver *Driver
}

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (*rel, error) {
	switch ch.Desc.Name {
	case "relation":
		ref, ok := ch.Payload.(TableRef)
		if !ok {
			return nil, fmt.Errorf("relstore: relation payload %T", ch.Payload)
		}
		if ref.Store == nil {
			return &rel{rows: ref.result}, nil
		}
		return &rel{ref: &ref}, nil
	case "collection", "file":
		data, err := driverutil.ChannelSlice(ch)
		if err != nil {
			return nil, err
		}
		return &rel{rows: data}, nil
	default:
		return nil, fmt.Errorf("relstore: unsupported input channel %q", ch.Desc.Name)
	}
}

// ToChannel implements driverutil.Engine. Results stay a relation, the result
// set itself, so downstream relational stages or conversions can consume
// them.
func (e *engine) ToChannel(op *core.Operator, r *rel) (*core.Channel, error) {
	if op.Kind == core.KindCollectionSink {
		return driverutil.CollectionOf(r.rows), nil
	}
	return resultSet(r.rows), nil
}

// rowsOf reads an input's rows: a row set as it is, a table by a full scan.
func (e *engine) rowsOf(r *rel) ([]any, error) {
	if r.ref == nil {
		return r.rows, nil
	}
	return r.ref.scan(nil, nil, e.driver.Conf.Workers)
}

// Apply implements driverutil.Engine. The store is an eager engine: every
// operator's output is a row set, counted and sniffed where it lies.
func (e *engine) Apply(op *core.Operator, in []*rel, round core.Round, counter *int64, sniff func(any)) (*rel, error) {
	out, err := e.apply(op, in)
	if err != nil {
		return nil, err
	}
	driverutil.Observe([][]any{out.rows}, counter, sniff)
	return out, nil
}

// ApplyChain implements driverutil.ChainEngine for the narrow kinds the
// store has mappings for: filter and project (plus an absorbed reduce-by,
// its hash aggregation). A chain whose head is a declarative filter over a
// base table pushes it down into an indexed scan (the index narrows the scan
// before any row reaches the kernel); the remaining steps run over the scan
// result in one pass. A filter carrying a UDF predicate is never pushed down: the
// UDF wins over Params.Where (see driverutil.PredOf).
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, r *rel, counters []*int64) (*rel, error) {
	for _, op := range chain.Ops {
		if op.Kind != core.KindFilter && op.Kind != core.KindProject {
			return nil, fmt.Errorf("relstore: unsupported operator kind %s (relational platform)", op.Kind)
		}
	}
	head := chain.Head()
	var rows []any
	var err error
	if head.Kind == core.KindFilter && head.Params.Where != nil && head.UDF.Pred == nil && r.ref != nil {
		if rows, err = r.ref.scan(nil, head.Params.Where, e.driver.Conf.Workers); err != nil {
			return nil, err
		}
		driverutil.Observe([][]any{rows}, counters[0], kernel.StepSniff(0))
		// Fuse the rest of the chain over the scan result, keeping any
		// attached sniffers.
		kernel = kernel.Tail(1)
		counters = counters[1:]
	} else if rows, err = e.rowsOf(r); err != nil {
		return nil, err
	}
	if kernel.Len() == 0 && !kernel.Reduces() {
		return &rel{rows: rows}, nil // a pushed-down lone filter leaves nothing to run
	}
	// Single worker set, one partition: an absorbed reduce-by aggregates in
	// place, in first-occurrence order.
	out := driverutil.RunChainParts(driverutil.Serial{}, kernel, [][]any{rows}, counters)
	return &rel{rows: out[0]}, nil
}

func (e *engine) apply(op *core.Operator, in []*rel) (*rel, error) {
	switch op.Kind {
	case core.KindTableSource:
		store, err := e.driver.StoreByName(op.Params.Store)
		if err != nil {
			return nil, err
		}
		// Projection (and, when present, the declarative predicate) pushes
		// into the scan.
		rows, err := TableRef{Store: store, Table: op.Params.Table}.scan(op.Params.Columns, op.Params.Where, e.driver.Conf.Workers)
		if err != nil {
			return nil, err
		}
		return &rel{rows: rows}, nil

	case core.KindCount:
		if in[0].ref != nil {
			// Counting a base table is a metadata lookup.
			t, err := in[0].ref.Store.Table(in[0].ref.Table)
			if err != nil {
				return nil, err
			}
			return &rel{rows: []any{int64(t.RowCount())}}, nil
		}
		fallthrough

	// The blocking kinds the store has mappings for; driverutil.ApplyBlocking
	// knows more, and the default arm keeps rejecting those. A reduce-by is
	// its chain's terminator (ApplyChain).
	case core.KindJoin, core.KindGroupBy, core.KindSort, core.KindDistinct:
		ins := make([][][]any, len(in))
		for i, r := range in {
			rows, err := e.rowsOf(r)
			if err != nil {
				return nil, err
			}
			ins[i] = [][]any{rows}
		}
		out, err := driverutil.ApplyBlocking(driverutil.Serial{}, op, core.Round{}, ins) // none of these kinds samples
		if err != nil {
			return nil, err
		}
		return &rel{rows: out[0]}, nil

	case core.KindCollectionSink:
		rows, err := e.rowsOf(in[0])
		if err != nil {
			return nil, err
		}
		return &rel{rows: rows}, nil

	default:
		return nil, fmt.Errorf("relstore: unsupported operator kind %s (relational platform)", op.Kind)
	}
}
