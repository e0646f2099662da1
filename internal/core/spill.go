package core

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// Trace spilling: a recording is its v2 bytes, and those bytes go to an
// on-disk container as soon as the execution that recorded them
// finishes; the record pick hands its consumers a memsys.Trace over the
// file, so a memoized recording never holds its bytes in memory while
// its sweeps run. Replay jobs (Figure 3, Figure 7–8) stream the file
// block by block.
//
// Containers are content-addressed by the trace identity (the same key
// space as every derived replay, SuiteVersion included), so a later
// process on the same cache directory reuses a container the way it
// reuses cached replay results; an uncached engine spills into a
// private directory that lives as long as it does. A container is a
// runner entry file — magic, SHA-256, v2 bytes — written atomically by
// runner.WriteEntry. A reused file must be *verified*, not trusted: a
// reader whose runner.OpenEntry check fails (corruption, a file of an
// older version) re-records instead of replaying the wrong bytes.

// spillPath returns the container path of a trace key.
func (e *Engine) spillPath(key string) string {
	return filepath.Join(e.spillDir, key+".sp2t")
}

// loadSpilled opens key's container once its checksum is verified, under
// the "trace.read*" fault points. Any failure — a missing, damaged or
// unreadable container — reads as a miss, never an error: spilling must
// degrade to re-recording.
func (e *Engine) loadSpilled(ctx context.Context, key string) (*memsys.Trace, bool) {
	payload, f, err := runner.OpenEntry(e.spillPath(key))
	if err != nil {
		return nil, false
	}
	var tf *memsys.Trace
	if err = e.fault.Do(ctx, "trace.read"); err == nil {
		tf, err = memsys.NewTraceFile(payload, payload.Size(), e.fault)
	}
	if err != nil {
		f.Close()
		return nil, false
	}
	return tf, true
}

// spill serves key's verified container: the one its execution wrote
// (exec.go), or an earlier run's. Failing that, it writes the recording
// record returns and serves a Trace over the file, so the recording
// leaves memory. The container never enters the result cache; it is the
// cached artifact.
func (e *Engine) spill(ctx context.Context, key string, record func() (*memsys.Trace, error)) (*memsys.Trace, error) {
	if out, ok := e.loadSpilled(ctx, key); ok {
		return out, nil
	}
	rec, err := record()
	if err != nil {
		return nil, err
	}
	if err := e.writeSpilled(key, rec); err != nil {
		return nil, err
	}
	out, ok := e.loadSpilled(ctx, key)
	if !ok {
		// A read fault struck, or the file was damaged after our rename;
		// serve the recording in hand.
		return rec, nil
	}
	return out, nil
}

// writeSpilled stores the v2 bytes of tr as key's container.
func (e *Engine) writeSpilled(key string, tr *memsys.Trace) error {
	if err := runner.WriteEntry(e.tmpDir, e.spillPath(key), func(w io.Writer) error {
		_, err := tr.WriteV2(w)
		return err
	}); err != nil {
		return fmt.Errorf("core: spilling trace: %w", err)
	}
	return nil
}
