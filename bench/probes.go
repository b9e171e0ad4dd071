package main

import (
	"bytes"
	"fmt"
	"time"

	"rheem/internal/core"
	"rheem/internal/platform/driverutil"
	"rheem/internal/platform/relstore"
	"rheem/internal/storage/dfs"
)

// probeInputs are a workload's own data handed to the layer probes: each
// probe times one layer's public functions directly, so a layer has a number
// of its own even where the end-to-end job hides it. An empty field skips
// the probes that need it, and their metrics read 0.
type probeInputs struct {
	records []any    // quanta for the batch, codec and DFS-quanta probes
	lines   []string // corpus for the DFS text probes

	vectorOps []*core.Operator // declarative narrow chain ...
	aggOp     *core.Operator   // ... and the reduce-by it feeds
	fusedOps  []*core.Operator // UDF narrow chain

	relRows []core.Record // customer rows for the relstore probes
}

const (
	probeReps = 3
	// probeMaxRecords caps the quanta a probe touches so the traced pass
	// stays inside its time budget on the 1 M-record workload.
	probeMaxRecords = 200000
)

// timeMedian runs fn probeReps times and returns the median seconds.
func timeMedian(fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// runProbes times the layers below the executor on the workload's own data
// and adds their metrics to m.
func runProbes(in probeInputs, store *dfs.Store, m map[string]float64) error {
	records := in.records
	if len(records) > probeMaxRecords {
		records = records[:probeMaxRecords]
	}
	rows := float64(len(records))
	const mb = 1 << 20

	if len(in.vectorOps) > 0 {
		row, err := driverutil.CompileChain(in.vectorOps)
		if err != nil {
			return fmt.Errorf("vector probe: %w", err)
		}
		var kernel *driverutil.VectorKernel
		var st *core.AggState
		s, _ := timeMedian(func() error {
			kernel = driverutil.CompileVector(in.vectorOps, in.aggOp, row)
			st = core.NewAggState(kernel.Agg())
			kernel.RunAgg(records, make([]int64, kernel.Len()), st)
			return nil
		})
		_, _, fallbacks, _, _ := kernel.Stats()
		m["driverutil.vector_rows_per_s"] = ratio(rows, s)
		m["driverutil.vector_fallbacks"] = float64(fallbacks)
		m["core.agg_groups"] = float64(st.Groups())
	}
	if len(in.fusedOps) > 0 {
		kernel, err := driverutil.CompileChain(in.fusedOps)
		if err != nil {
			return fmt.Errorf("fused probe: %w", err)
		}
		s, _ := timeMedian(func() error {
			kernel.Run(records, nil, nil)
			return nil
		})
		m["driverutil.fused_rows_per_s"] = ratio(rows, s)
	}

	if len(records) > 0 {
		// Not every quantum type has a column form; where the workload's
		// records have none, the two batch metrics read 0.
		if batch, ok := core.BatchFromRowsNeeding(records, nil); ok {
			s, _ := timeMedian(func() error {
				core.BatchFromRowsNeeding(records, nil)
				return nil
			})
			m["core.batch_build_rows_per_s"] = ratio(rows, s)
			if in.aggOp != nil {
				s, _ := timeMedian(func() error {
					st := core.NewAggState(in.aggOp.UDF.ReduceExpr)
					if !st.AbsorbBatch(batch, nil, nil) {
						st.AbsorbRows(records)
					}
					return nil
				})
				m["core.agg_absorb_rows_per_s"] = ratio(rows, s)
			}
		}

		var wire bytes.Buffer
		s, err := timeMedian(func() error {
			wire.Reset()
			return core.WriteQuantaStream(&wire, records)
		})
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		m["core.codec_encode_mb_per_s"] = ratio(float64(wire.Len())/mb, s)
		m["core.codec_bytes_per_quantum"] = float64(wire.Len()) / rows
		s, err = timeMedian(func() error {
			_, err := core.ReadQuantaStreamSegments(bytes.NewReader(wire.Bytes()))
			return err
		})
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		m["core.codec_decode_mb_per_s"] = ratio(float64(wire.Len())/mb, s)

		const name = "probe-quanta.rqb"
		s, err = timeMedian(func() error { return driverutil.WriteDFSQuanta(store, name, records) })
		if err != nil {
			return fmt.Errorf("dfs quanta probe: %w", err)
		}
		size, _, err := store.Stat(name)
		if err != nil {
			return fmt.Errorf("dfs quanta probe: %w", err)
		}
		m["dfs.quanta_write_mb_per_s"] = ratio(float64(size)/mb, s)
		s, err = timeMedian(func() error {
			_, err := driverutil.ReadDFSQuantaSegments(store, name)
			return err
		})
		if err != nil {
			return fmt.Errorf("dfs quanta probe: %w", err)
		}
		m["dfs.quanta_read_mb_per_s"] = ratio(float64(size)/mb, s)
		if err := store.Delete(name); err != nil {
			return err
		}
	}

	if len(in.lines) > 0 {
		const name = "probe-lines.txt"
		size := 0
		for _, l := range in.lines {
			size += len(l) + 1
		}
		s, err := timeMedian(func() error { return store.WriteLines(name, in.lines) })
		if err != nil {
			return fmt.Errorf("dfs text probe: %w", err)
		}
		m["dfs.write_mb_per_s"] = ratio(float64(size)/mb, s)
		s, err = timeMedian(func() error {
			_, err := store.ReadLines(name)
			return err
		})
		if err != nil {
			return fmt.Errorf("dfs text probe: %w", err)
		}
		m["dfs.read_mb_per_s"] = ratio(float64(size)/mb, s)
		if err := store.Delete(name); err != nil {
			return err
		}
	}

	if len(in.relRows) > 0 {
		// The customer schema of datacivilizer.LoadPolystore, in a store of
		// the probe's own so the workload's tables stay as loaded.
		cols := []relstore.Column{
			{Name: "custkey", Type: relstore.TInt}, {Name: "name", Type: relstore.TString},
			{Name: "nationkey", Type: relstore.TInt}, {Name: "acctbal", Type: relstore.TFloat},
			{Name: "mktsegment", Type: relstore.TString},
		}
		var table *relstore.Table
		s, err := timeMedian(func() error {
			t, err := relstore.NewStore("probe").CreateTable("customer", cols)
			if err != nil {
				return err
			}
			table = t
			return t.Insert(in.relRows...)
		})
		if err != nil {
			return fmt.Errorf("relstore probe: %w", err)
		}
		m["relstore.load_rows_per_s"] = ratio(float64(len(in.relRows)), s)
		s, err = timeMedian(func() error {
			_, err := table.Scan(nil, nil, 1)
			return err
		})
		if err != nil {
			return fmt.Errorf("relstore probe: %w", err)
		}
		m["relstore.scan_rows_per_s"] = ratio(float64(len(in.relRows)), s)
	}
	return nil
}
