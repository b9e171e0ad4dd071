package relstore

import (
	"fmt"
	"sync/atomic"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
)

// Platform is the platform name this driver registers under.
const Platform = "relstore"

// TableRef is the payload of relation channels: a table within a store.
type TableRef struct {
	Store *Store
	Table string
}

// Rows materializes the referenced table's rows as quanta. It also serves
// generic consumers (tests, the executor's collectors) that only know the
// interface { Rows() ([]any, error) }.
func (ref TableRef) Rows() ([]any, error) {
	t, err := ref.Store.Table(ref.Table)
	if err != nil {
		return nil, err
	}
	recs, err := t.Scan(nil, nil, 1)
	if err != nil {
		return nil, err
	}
	rows := make([]any, len(recs))
	for i, r := range recs {
		rows[i] = r
	}
	return rows, nil
}

// RelationChannel is the store's native channel: a (possibly temporary)
// table. Data is at rest and reusable.
var RelationChannel = core.ChannelDescriptor{Name: "relation", Platform: Platform, Reusable: true, AtRest: true}

// Config tunes the engine. The latency/slowdown fields treat 0 as "use the
// default"; pass any negative value for a genuinely overhead-free
// configuration.
type Config struct {
	// Workers bounds intra-query parallelism (the experiment sets the
	// Postgres "parallel query" knob to 4). Default 4.
	Workers int
	// QueryLatencyMs is the per-query planning/roundtrip latency.
	// Default 1.5; negative means none.
	QueryLatencyMs float64
	// SimSlowdown models the store's single-node capacity relative to the
	// substrate host (see the streams driver). Default 2; negative (or 1)
	// disables.
	SimSlowdown float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	c.QueryLatencyMs = driverutil.OverheadMs(c.QueryLatencyMs, 1.5)
	switch {
	case c.SimSlowdown == 0:
		c.SimSlowdown = 2
	case c.SimSlowdown < 0:
		c.SimSlowdown = 1
	}
	return c
}

// Driver is the relational-store platform driver. It executes only
// relational operator kinds; plans containing arbitrary UDF transformations
// must (partially) run elsewhere.
type Driver struct {
	Conf   Config
	stores map[string]*Store
	tmpSeq atomic.Int64
}

// New creates a driver hosting the given stores (nil is allowed; stores can
// be attached later with Attach).
func New(conf Config, stores ...*Store) *Driver {
	d := &Driver{Conf: conf.withDefaults(), stores: map[string]*Store{}}
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
// into a temporary table (a bulk load).
func (d *Driver) Conversions() []*core.Conversion {
	return []*core.Conversion{
		{
			Name: "relstore.export", From: "relation", To: "collection",
			FixedCostMs: 2, PerQuantumMs: 0.003,
			Convert: func(in *core.Channel) (*core.Channel, error) {
				ref, ok := in.Payload.(TableRef)
				if !ok {
					return nil, fmt.Errorf("relstore.export: payload %T", in.Payload)
				}
				t, err := ref.Store.Table(ref.Table)
				if err != nil {
					return nil, err
				}
				rows, err := t.Scan(nil, nil, d.Conf.Workers)
				if err != nil {
					return nil, err
				}
				data := make([]any, len(rows))
				for i, r := range rows {
					data[i] = r
				}
				return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(data), int64(len(data))), nil
			},
		},
		{
			Name: "relstore.load", From: "collection", To: "relation",
			FixedCostMs: 5, PerQuantumMs: 0.012, // bulk loads are expensive (the polystore lesson)
			Convert: func(in *core.Channel) (*core.Channel, error) {
				data, err := driverutil.ChannelSlice(in)
				if err != nil {
					return nil, err
				}
				store, err := d.StoreByName("")
				if err != nil {
					return nil, err
				}
				name := fmt.Sprintf("tmp_load_%d", d.tmpSeq.Add(1))
				if err := LoadRecords(store, name, data); err != nil {
					return nil, err
				}
				return core.NewChannel(RelationChannel, TableRef{Store: store, Table: name}, int64(len(data))), nil
			},
		},
	}
}

// LoadRecords bulk-loads record quanta into a new table, inferring the
// schema from the first record.
func LoadRecords(store *Store, table string, data []any) error {
	var cols []Column
	if len(data) > 0 {
		first, ok := data[0].(core.Record)
		if !ok {
			return fmt.Errorf("relstore: cannot load %T quanta into a table", data[0])
		}
		cols = make([]Column, len(first))
		for i, v := range first {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: typeOf(v)}
		}
	}
	t, err := store.CreateTable(table, cols)
	if err != nil {
		return err
	}
	rows := make([]core.Record, len(data))
	for i, q := range data {
		r, ok := q.(core.Record)
		if !ok {
			return fmt.Errorf("relstore: quantum %T is not a Record", q)
		}
		rows[i] = r
	}
	return t.Insert(rows...)
}

func typeOf(v any) ColType {
	switch v.(type) {
	case string:
		return TString
	case float64, float32:
		return TFloat
	default:
		return TInt
	}
}

// RegisterMappings implements core.Driver: only relational kinds.
func (d *Driver) RegisterMappings(r *core.MappingRegistry) {
	one := func(k core.Kind, name string) {
		r.Register(k, core.Alternative{Platform: Platform, Steps: []core.ExecOpTemplate{{
			Name: name, Platform: Platform, Kind: k,
			In: []string{"relation"}, Out: "relation",
		}}})
	}
	one(core.KindTableSource, "relstore.table-scan")
	one(core.KindFilter, "relstore.filter")
	one(core.KindProject, "relstore.project")
	one(core.KindJoin, "relstore.hash-join")
	one(core.KindReduceBy, "relstore.hash-agg")
	one(core.KindGroupBy, "relstore.group")
	one(core.KindSort, "relstore.sort")
	one(core.KindDistinct, "relstore.distinct")
	one(core.KindCount, "relstore.count")
	one(core.KindCollectionSink, "relstore.fetch")
}

// Execute implements core.Driver.
func (d *Driver) Execute(stage *core.Stage, in *core.Inputs) (map[*core.Operator]*core.Channel, *core.StageStats, error) {
	driverutil.SleepMs(d.Conf.QueryLatencyMs)
	outs, stats, err := driverutil.RunStage(&engine{driver: d}, stage, in)
	if err == nil {
		driverutil.ApplySlowdown(stats, d.Conf.SimSlowdown)
	}
	return outs, stats, err
}

// rel is the engine's native data: either a table reference (still in the
// store, scannable with push-down) or an intermediate row set.
type rel struct {
	ref  *TableRef
	rows []any // Records
}

type engine struct {
	driver *Driver
}

// FromChannel implements driverutil.Engine.
func (e *engine) FromChannel(ch *core.Channel) (driverutil.Data, error) {
	switch ch.Desc.Name {
	case "relation":
		ref, ok := ch.Payload.(TableRef)
		if !ok {
			return nil, fmt.Errorf("relstore: relation payload %T", ch.Payload)
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

// ToChannel implements driverutil.Engine.
func (e *engine) ToChannel(op *core.Operator, d driverutil.Data) (*core.Channel, error) {
	r, ok := d.(*rel)
	if !ok {
		return nil, fmt.Errorf("relstore: %s produced %T", op, d)
	}
	if op.Kind == core.KindCollectionSink {
		rows, err := e.rowsOf(r)
		if err != nil {
			return nil, err
		}
		return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(rows), int64(len(rows))), nil
	}
	// Leave results as a (temporary) relation so downstream relational
	// stages or conversions can consume them.
	if r.ref != nil {
		t, err := r.ref.Store.Table(r.ref.Table)
		if err != nil {
			return nil, err
		}
		return core.NewChannel(RelationChannel, *r.ref, int64(t.RowCount())), nil
	}
	// Non-record intermediates (counts, keyed aggregates) cannot live in a
	// table; hand them over as a driver collection instead. The executor's
	// data-movement planner treats the actual channel type as authoritative.
	if !allRecords(r.rows) {
		return core.NewChannel(core.CollectionChannel, core.NewSliceDataset(r.rows), int64(len(r.rows))), nil
	}
	store, err := e.driver.StoreByName("")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("tmp_res_%d", e.driver.tmpSeq.Add(1))
	if err := LoadRecords(store, name, r.rows); err != nil {
		return nil, err
	}
	return core.NewChannel(RelationChannel, TableRef{Store: store, Table: name}, int64(len(r.rows))), nil
}

func allRecords(rows []any) bool {
	for _, q := range rows {
		if _, ok := q.(core.Record); !ok {
			return false
		}
	}
	return true
}

func (e *engine) rowsOf(r *rel) ([]any, error) {
	if r.ref == nil {
		return r.rows, nil
	}
	t, err := r.ref.Store.Table(r.ref.Table)
	if err != nil {
		return nil, err
	}
	recs, err := t.Scan(nil, nil, e.driver.Conf.Workers)
	if err != nil {
		return nil, err
	}
	rows := make([]any, len(recs))
	for i, rec := range recs {
		rows[i] = rec
	}
	return rows, nil
}

// Apply implements driverutil.Engine.
func (e *engine) Apply(op *core.Operator, in []driverutil.Data, bc core.BroadcastCtx, round int, counter *int64, sniff func(any)) (driverutil.Data, error) {
	ins := make([]*rel, len(in))
	for i, d := range in {
		r, ok := d.(*rel)
		if !ok {
			return nil, fmt.Errorf("relstore: %s input %d is %T", op, i, d)
		}
		ins[i] = r
	}
	out, err := e.apply(op, ins)
	if err != nil {
		return nil, err
	}
	// Count + sniff on materialized outputs (the store is an eager engine).
	if out.ref == nil {
		*counter = int64(len(out.rows))
		if sniff != nil {
			for _, q := range out.rows {
				sniff(q)
			}
		}
	} else if t, err := out.ref.Store.Table(out.ref.Table); err == nil {
		*counter = int64(t.RowCount())
		if sniff != nil {
			rows, _ := e.rowsOf(out)
			for _, q := range rows {
				sniff(q)
			}
		}
	}
	return out, nil
}

// ApplyChain implements driverutil.ChainEngine for the narrow kinds the
// store has mappings for: filter and project (plus an absorbed declarative
// reduce-by). A chain whose head is a declarative filter over a base table
// pushes it down into an indexed scan (the index narrows the scan before
// any row reaches the kernel); the remaining steps run over the scan result
// in one pass. A filter carrying a UDF predicate is never pushed down: the
// UDF wins over Params.Where (see driverutil.PredOf).
func (e *engine) ApplyChain(chain *driverutil.FusedChain, kernel *driverutil.VectorKernel, in driverutil.Data, counters []*int64) (driverutil.Data, error) {
	r, ok := in.(*rel)
	if !ok {
		return nil, fmt.Errorf("relstore: fused chain input is %T", in)
	}
	for _, op := range chain.Ops {
		if op.Kind != core.KindFilter && op.Kind != core.KindProject {
			return nil, fmt.Errorf("relstore: unsupported operator kind %s (relational platform)", op.Kind)
		}
	}
	head := chain.Head()
	var rows []any
	if head.Kind == core.KindFilter && head.Params.Where != nil && head.UDF.Pred == nil && r.ref != nil {
		t, err := r.ref.Store.Table(r.ref.Table)
		if err != nil {
			return nil, err
		}
		recs, err := t.Scan(nil, head.Params.Where, e.driver.Conf.Workers)
		if err != nil {
			return nil, err
		}
		rows = make([]any, len(recs))
		for i, rec := range recs {
			rows[i] = rec
		}
		*counters[0] += int64(len(rows))
		if sniff := kernel.StepSniff(0); sniff != nil {
			for _, q := range rows {
				sniff(q)
			}
		}
		// Fuse the rest of the chain over the scan result, keeping any
		// attached sniffers.
		kernel = kernel.Tail(1)
		counters = counters[1:]
	} else {
		var err error
		rows, err = e.rowsOf(r)
		if err != nil {
			return nil, err
		}
	}
	if kernel.Len() == 0 && kernel.Agg() == nil {
		return &rel{rows: rows}, nil // a pushed-down lone filter leaves nothing to run
	}
	// Single worker set, one partition: an absorbed aggregation finalizes in
	// place, in first-occurrence order.
	out := driverutil.RunChainParts(driverutil.Serial{}, kernel, driverutil.RowSegments([][]any{rows}), counters)
	return &rel{rows: out[0]}, nil
}

func (e *engine) apply(op *core.Operator, in []*rel) (*rel, error) {
	w := e.driver.Conf.Workers
	switch op.Kind {
	case core.KindTableSource:
		store, err := e.driver.StoreByName(op.Params.Store)
		if err != nil {
			return nil, err
		}
		t, err := store.Table(op.Params.Table)
		if err != nil {
			return nil, err
		}
		// Projection (and, when present, the declarative predicate) pushes
		// into the scan.
		recs, err := t.Scan(op.Params.Columns, op.Params.Where, w)
		if err != nil {
			return nil, err
		}
		rows := make([]any, len(recs))
		for i, r := range recs {
			rows[i] = r
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
	// knows more, and the default arm keeps rejecting those.
	case core.KindJoin, core.KindReduceBy, core.KindGroupBy, core.KindSort, core.KindDistinct:
		ins := make([][][]any, len(in))
		for i, r := range in {
			rows, err := e.rowsOf(r)
			if err != nil {
				return nil, err
			}
			ins[i] = [][]any{rows}
		}
		out, _, err := driverutil.ApplyBlocking(driverutil.Serial{}, op, ins)
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
