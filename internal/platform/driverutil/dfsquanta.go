package driverutil

import (
	"errors"
	"fmt"

	"rheem/internal/core"
	"rheem/internal/storage/dfs"
)

// DFS-resident encoded quanta, the at-rest form of cross-platform data
// movement through the cluster file system (spark shuffle partitions, flink
// exchanges, streams spills). Files are written in the framed binary format
// — the core.BinaryQuantaMagic header, then one length-prefixed binary
// quantum per frame — with per-block frame offsets so parallel engines can
// read block splits independently. It is the only format the readers accept.

// WriteDFSQuanta encodes quanta into a framed binary DFS file. The name may
// carry the dfs:// scheme. A mid-write encode or replication error aborts
// the file (no metadata, blocks removed) rather than leaving a torn object.
// Runs of batchable rows are packed into column-wise batch frames (one frame
// per core.CodecBatchRows rows); readers expand them transparently. The
// encode buffer is borrowed from the shared pool so shuffle-heavy jobs don't
// regrow a scratch slice per partition file.
func WriteDFSQuanta(store *dfs.Store, name string, data []any) error {
	fw, err := store.CreateFrames(dfs.TrimScheme(name))
	if err != nil {
		return err
	}
	if err := fw.WriteRaw([]byte(core.BinaryQuantaMagic)); err != nil {
		fw.Abort()
		return err
	}
	bufp := core.GetEncodeBuf()
	defer core.PutEncodeBuf(bufp)
	buf := *bufp
	defer func() { *bufp = buf }()
	for start := 0; start < len(data); start += core.CodecBatchRows {
		end := min(start+core.CodecBatchRows, len(data))
		chunk := data[start:end]
		var ok bool
		if buf, ok, err = core.TryAppendBatch(buf[:0], chunk); err != nil {
			fw.Abort()
			return err
		}
		if ok {
			if err := fw.WriteFrame(buf); err != nil {
				fw.Abort()
				return err
			}
			continue
		}
		for _, q := range chunk {
			if buf, err = core.AppendQuantumBinary(buf[:0], q); err != nil {
				fw.Abort()
				return err
			}
			if err := fw.WriteFrame(buf); err != nil {
				fw.Abort()
				return err
			}
		}
	}
	return fw.Close()
}

// ReadDFSQuanta decodes a whole DFS quanta file to row-major quanta. The
// path may carry the dfs:// scheme.
func ReadDFSQuanta(store *dfs.Store, path string) ([]any, error) {
	segs, err := ReadDFSQuantaSegments(store, path)
	if err != nil {
		return nil, err
	}
	return core.SegmentRows(segs), nil
}

// ReadDFSQuantaSegments decodes a whole DFS quanta file to the codec's
// decoded form, batch frames as column-batch segments (see
// core.ReadQuantaStreamSegments). A driver without a store reports so here.
func ReadDFSQuantaSegments(store *dfs.Store, path string) ([]core.Segment, error) {
	if store == nil {
		return nil, fmt.Errorf("driverutil: no DFS configured for %s", path)
	}
	r, err := store.Open(dfs.TrimScheme(path))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.ReadQuantaStreamSegments(r)
}

// ReadDFSQuantaBlock decodes the quanta one block split owns to rows, batch
// frames expanded. The blocks' rows, in order, are exactly the file's quanta,
// each once. A file written without frame metadata is not a quanta file:
// core.ErrCorruptQuantum.
func ReadDFSQuantaBlock(store *dfs.Store, name string, index int) ([]any, error) {
	frames, err := store.ReadBlockFrames(dfs.TrimScheme(name), index)
	if errors.Is(err, dfs.ErrNotFramed) {
		return nil, fmt.Errorf("%w: %v", core.ErrCorruptQuantum, err)
	}
	if err != nil {
		return nil, err
	}
	var rows []any
	for _, f := range frames {
		if rows, err = core.AppendFrameRows(rows, f); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
