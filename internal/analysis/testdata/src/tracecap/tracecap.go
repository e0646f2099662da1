// Package tracecap seeds trace-capture violations: application/driver
// code handing references straight to the memsys entry points, which
// bypasses internal/mach's batched epoch-stamped capture path. The
// `// want <check>` markers are the golden diagnostics asserted by
// analysis_test.go.
package tracecap

import "splash2/internal/memsys"

// record stands in for app code writing straight into a recorder.
func record(rec *memsys.Recorder, a memsys.Addr) {
	rec.RecordBatch(1, 3, []uint64{uint64(a)}) // want tracecapture
	rec.RecordResetAt(4)                       // want tracecapture
}

// simulate stands in for driver code feeding the memory systems itself.
func simulate(feed *memsys.Feed) error {
	return feed.Batch([]uint64{8}, []uint64{1}) // want tracecapture
}

// methodValue escapes via a bound method, not a call.
func methodValue(feed *memsys.Feed) func([]uint64, []uint64) error {
	return feed.Batch // want tracecapture
}

// suppressed shows a justified tooling escape.
func suppressed(rec *memsys.Recorder) {
	//splash:allow tracecapture fixture: deliberate single-event tooling write with a reason
	rec.RecordBatch(0, 0, []uint64{8})
}

// replayIsClean: the replay entry points are not per-reference capture
// and stay legal everywhere, and so is sizing or resetting a feed.
func replayIsClean(tr *memsys.Trace, cfg memsys.Config, feed *memsys.Feed) (memsys.Stats, error) {
	feed.Reserve(64)
	feed.ResetStats()
	return memsys.Replay(tr, cfg)
}
