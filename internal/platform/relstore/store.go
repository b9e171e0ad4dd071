// Package relstore implements the PostgreSQL-analog platform: an embedded
// single-node relational engine with heap tables, sorted (B-tree-like)
// indexes, predicate and projection push-down into scans, hash joins and
// hash aggregation, and bounded intra-query parallelism. Unlike the
// general-purpose engines it only accepts relational operators — arbitrary
// UDF transformations (Map, FlatMap, ML loops) are not executable here,
// which is precisely what forces the optimizer into mandatory
// cross-platform plans (Section 2.3 of the paper). Beside the store, the
// package holds its driver on the shared platform frame
// (driverutil/platform.go): TableRef, filter push-down, the bulk load.
package relstore

import (
	"fmt"
	"sort"
	"sync"

	"rheem/internal/core"
)

// ColType is a column's data type.
type ColType int

// Supported column types.
const (
	TInt ColType = iota
	TFloat
	TString
)

// Column describes one attribute of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Table is a heap table plus its indexes.
type Table struct {
	Name    string
	Columns []Column

	mu      sync.RWMutex
	rows    []core.Record
	indexes map[int]*index // by column ordinal
}

// index is a sorted-key index over one column: the moral equivalent of a
// B-tree for an in-memory store (binary search for point and range probes).
type index struct {
	col  int
	keys []indexEntry
}

type indexEntry struct {
	key float64 // numeric image of the key (strings indexed separately)
	str string  // string image when the column is TString
	row int
}

// Store is a named collection of tables: one "database server" instance.
type Store struct {
	Name string

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates an empty store.
func NewStore(name string) *Store {
	return &Store{Name: name, tables: map[string]*Table{}}
}

// CreateTable creates a table with the given schema. It fails if the name
// is taken.
func (s *Store) CreateTable(name string, cols []Column) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	t := &Table{Name: name, Columns: cols, indexes: map[int]*index{}}
	s.tables[name] = t
	return t, nil
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("relstore: no table %q", name)
	}
	delete(s.tables, name)
	return nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", name)
	}
	return t, nil
}

// Tables lists table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert appends rows to the table, maintaining indexes.
func (t *Table) Insert(rows ...core.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("relstore: %s: row arity %d != schema arity %d", t.Name, len(r), len(t.Columns))
		}
	}
	base := len(t.rows)
	t.rows = append(t.rows, rows...)
	for col, idx := range t.indexes {
		for i, r := range rows {
			idx.insert(t.Columns[col].Type, r, base+i)
		}
	}
	return nil
}

// RowCount returns the number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CreateIndex builds a sorted index over a column.
func (t *Table) CreateIndex(col int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col < 0 || col >= len(t.Columns) {
		return fmt.Errorf("relstore: %s has no column %d", t.Name, col)
	}
	if _, ok := t.indexes[col]; ok {
		return nil // idempotent
	}
	idx := &index{col: col}
	for i, r := range t.rows {
		idx.insert(t.Columns[col].Type, r, i)
	}
	idx.sort()
	t.indexes[col] = idx
	return nil
}

// HasIndex reports whether the column is indexed.
func (t *Table) HasIndex(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[col]
	return ok
}

func (ix *index) insert(typ ColType, r core.Record, row int) {
	e := indexEntry{row: row}
	if typ == TString {
		e.str = r.String(ix.col)
	} else {
		e.key = r.Float(ix.col)
	}
	// Insertion keeps the slice sorted lazily: bulk loads call sort() once,
	// incremental inserts use binary insertion.
	pos := sort.Search(len(ix.keys), func(i int) bool { return !ix.less(ix.keys[i], e) })
	ix.keys = append(ix.keys, indexEntry{})
	copy(ix.keys[pos+1:], ix.keys[pos:])
	ix.keys[pos] = e
}

func (ix *index) less(a, b indexEntry) bool {
	if a.str != "" || b.str != "" {
		return a.str < b.str
	}
	return a.key < b.key
}

func (ix *index) sort() {
	sort.SliceStable(ix.keys, func(i, j int) bool { return ix.less(ix.keys[i], ix.keys[j]) })
}

// Predicate is a declarative single-column comparison the engine can push
// into scans and, when the column is indexed, satisfy with a binary search.
// It mirrors core.Params.Where.
type Predicate = core.Predicate

// Scan reads the table with projection and an optional pushed-down
// predicate. An indexed equality or range predicate is answered from the
// index; otherwise the heap is scanned (in parallel when workers > 1).
func (t *Table) Scan(cols []int, where *Predicate, workers int) ([]core.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var rowIdx []int
	if where != nil {
		if idx, ok := t.indexes[where.Col]; ok {
			rowIdx = idx.probe(t.Columns[where.Col].Type, where)
		}
	}
	project := func(r core.Record) core.Record {
		if cols == nil {
			return r
		}
		out := make(core.Record, len(cols))
		for j, c := range cols {
			out[j] = r[c]
		}
		return out
	}
	if rowIdx != nil {
		out := make([]core.Record, 0, len(rowIdx))
		for _, ri := range rowIdx {
			out = append(out, project(t.rows[ri]))
		}
		return out, nil
	}
	// Heap scan with predicate evaluation, chunked across workers.
	if workers < 1 {
		workers = 1
	}
	match := func(r core.Record) bool {
		if where == nil {
			return true
		}
		return where.Eval(r)
	}
	if workers == 1 || len(t.rows) < 4096 {
		var out []core.Record
		for _, r := range t.rows {
			if match(r) {
				out = append(out, project(r))
			}
		}
		return out, nil
	}
	chunk := (len(t.rows) + workers - 1) / workers
	parts := make([][]core.Record, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * chunk
		if lo >= len(t.rows) {
			break
		}
		hi := lo + chunk
		if hi > len(t.rows) {
			hi = len(t.rows)
		}
		wg.Add(1)
		go func(wkr, lo, hi int) {
			defer wg.Done()
			var part []core.Record
			for _, r := range t.rows[lo:hi] {
				if match(r) {
					part = append(part, project(r))
				}
			}
			parts[wkr] = part
		}(wkr, lo, hi)
	}
	wg.Wait()
	var out []core.Record
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// probe answers a predicate from the index, returning matching row ids in
// index order, or nil when the predicate shape is not index-supported.
func (ix *index) probe(typ ColType, where *Predicate) []int {
	if typ == TString && where.Op != core.PredEq {
		return nil // range scans over strings not supported by this index
	}
	n := len(ix.keys)
	cmpGE := func(i int, v float64) bool { return ix.keys[i].key >= v }
	var lo, hi int // half-open range of matching index positions
	switch where.Op {
	case core.PredEq:
		if typ == TString {
			s := fmt.Sprint(where.Value)
			lo = sort.Search(n, func(i int) bool { return ix.keys[i].str >= s })
			hi = sort.Search(n, func(i int) bool { return ix.keys[i].str > s })
		} else {
			v := toF(where.Value)
			lo = sort.Search(n, func(i int) bool { return cmpGE(i, v) })
			hi = sort.Search(n, func(i int) bool { return ix.keys[i].key > v })
		}
	case core.PredLt:
		v := toF(where.Value)
		lo, hi = 0, sort.Search(n, func(i int) bool { return cmpGE(i, v) })
	case core.PredLe:
		v := toF(where.Value)
		lo, hi = 0, sort.Search(n, func(i int) bool { return ix.keys[i].key > v })
	case core.PredGt:
		v := toF(where.Value)
		lo, hi = sort.Search(n, func(i int) bool { return ix.keys[i].key > v }), n
	case core.PredGe:
		v := toF(where.Value)
		lo, hi = sort.Search(n, func(i int) bool { return cmpGE(i, v) }), n
	default:
		return nil
	}
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, ix.keys[i].row)
	}
	return out
}

func toF(v any) float64 {
	switch n := v.(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	case int32:
		return float64(n)
	}
	return 0
}
