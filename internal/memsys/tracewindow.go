package memsys

import "fmt"

// EpochWindow returns a TraceSource view of a v2 container restricted
// to the synchronization epochs [lo, hi] (inclusive) stamped on its
// blocks, all processors. Blocks are selected through the index footer,
// so out-of-range blocks are never read or decoded — a sub-window replay
// costs I/O proportional to the window, not the trace. Reset markers are
// not part of the view. A trace read from a flat v1 stream carries its
// reset-marker eras as epochs, not synchronization epochs.
func EpochWindow(tf *Trace, lo, hi uint64) (TraceSource, error) {
	if lo > hi {
		return nil, fmt.Errorf("memsys: epoch window [%d, %d] is empty", lo, hi)
	}
	w := &windowedFile{tf: tf, lo: lo, hi: hi}
	m := TraceMeta{HomeLineSize: tf.homeLineSize, MaxAddr: tf.meta.MaxAddr}
	var procRefs [maxTraceProcs + 1]uint64
	for _, info := range tf.index {
		if !w.holds(info) {
			continue
		}
		m.Refs += uint64(info.Events)
		procRefs[info.Proc] += uint64(info.Events)
		m.MaxProc = max(m.MaxProc, info.Proc)
	}
	if m.Refs > 0 {
		m.ProcRefs = append([]uint64(nil), procRefs[:m.MaxProc+1]...)
	}
	m.MinProcs = minProcs(m.MaxProc, tf.homes)
	w.meta = m
	return w, nil
}

// windowedFile is an epoch-range view of a v2 container: Meta comes
// from the index footer, blocks from decoding only the in-range ones.
type windowedFile struct {
	tf     *Trace
	lo, hi uint64
	meta   TraceMeta
}

func (w *windowedFile) Meta() TraceMeta            { return w.meta }
func (w *windowedFile) HomeFn(lineSize int) HomeFn { return w.tf.HomeFn(lineSize) }

// holds reports whether the view includes a block.
func (w *windowedFile) holds(info BlockInfo) bool {
	return !info.Marker && info.Epoch >= w.lo && info.Epoch <= w.hi
}

// blocks decodes the in-range blocks inline, coalescing consecutive
// ones into yields of up to replayBlockSize events as Trace.blocks
// does, so a parallel pass meets its workers once per yield, not once
// per recorded block.
func (w *windowedFile) blocks(yield func(events []uint64) error) error {
	br := blockReader{tf: w.tf, ahead: streamAhead}
	events := make([]uint64, 0, min(replayBlockSize, w.meta.Len()))
	for i, info := range w.tf.index {
		if !w.holds(info) {
			continue
		}
		if len(events) > 0 && len(events)+info.Events > replayBlockSize {
			if err := yield(events); err != nil {
				return err
			}
			events = events[:0]
		}
		var err error
		if events, err = br.decode(i, events); err != nil {
			return err
		}
	}
	if len(events) == 0 {
		return nil
	}
	return yield(events)
}
