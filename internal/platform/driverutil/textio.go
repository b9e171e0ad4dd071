package driverutil

import (
	"fmt"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// ReadTextLines reads a text source as one string quantum per line: a
// dfs:// path from the store, anything else from the local file system.
func ReadTextLines(store *dfs.Store, path string) ([]any, error) {
	if !dfs.IsPath(path) {
		return core.ReadTextFile(path)
	}
	if store == nil {
		return nil, fmt.Errorf("no DFS configured for %s", path)
	}
	lines, err := store.ReadLines(dfs.TrimScheme(path))
	if err != nil {
		return nil, err
	}
	out := make([]any, len(lines))
	for i, l := range lines {
		out[i] = l
	}
	return out, nil
}

// WriteTextLines writes data to the text sink op names, one formatted
// quantum per line (see FormatOf).
func WriteTextLines(store *dfs.Store, op *core.Operator, data []any) error {
	format := FormatOf(op)
	path := op.Params.Path
	if !dfs.IsPath(path) {
		return core.WriteTextFile(path, data, format)
	}
	if store == nil {
		return fmt.Errorf("no DFS configured for %s", path)
	}
	lines := make([]string, len(data))
	for i, q := range data {
		lines[i] = format(q)
	}
	return store.WriteLines(dfs.TrimScheme(path), lines)
}
