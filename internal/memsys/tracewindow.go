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

func (w *windowedFile) blocks(yield func(events []uint64) error) error {
	br := blockReader{tf: w.tf}
	var events []uint64
	for i, info := range w.tf.index {
		if !w.holds(info) {
			continue
		}
		var err error
		if events, err = br.decode(i, events[:0]); err != nil {
			return err
		}
		if err := yield(events); err != nil {
			return err
		}
	}
	return nil
}
