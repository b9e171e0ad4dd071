package core

import "sync/atomic"

// Process-wide codec byte counters: every framed binary quantum encoded or
// decoded adds its payload size here. The executor samples the total around
// each wave to attribute "bytes moved" to stages in per-job resource
// profiles, and restapi exports it as a gauge-free running total. A single
// process-wide counter (rather than per-stream plumbing) keeps the codec
// hot path to one atomic add.
var codecBytesMoved atomic.Int64

// CodecBytesMoved returns the total framed-codec payload bytes encoded plus
// decoded by this process since start.
func CodecBytesMoved() int64 { return codecBytesMoved.Load() }

func addCodecBytes(n int) { codecBytesMoved.Add(int64(n)) }

// dictColumnsBuilt counts string columns that engaged dictionary encoding
// (at batch build or wire decode), on the same process-wide pattern as the
// codec byte counter.
var dictColumnsBuilt atomic.Int64

// DictColumnsBuilt returns the total dictionary-encoded string columns this
// process has materialized since start.
func DictColumnsBuilt() int64 { return dictColumnsBuilt.Load() }

// dictColumnsUntaken are the built columns TakeDictColumns has not handed out.
var dictColumnsUntaken atomic.Int64

// TakeDictColumns returns the dictionary columns built since its last call.
// Whoever exports the total as a counter adds what it takes, so every column
// is counted once however many jobs, executors and goroutines ask.
func TakeDictColumns() int64 { return dictColumnsUntaken.Swap(0) }

func addDictColumn() {
	dictColumnsBuilt.Add(1)
	dictColumnsUntaken.Add(1)
}
