package mach

import "fmt"

// Placement decides which node's local memory holds each cache line of an
// allocation: it maps a line index within the allocation (0..total-1) to a
// node id. The SPLASH-2 programs state per-application distribution
// guidelines (§2.2); the helpers below cover them.
type Placement func(lineIdx, totalLines, procs int) int

// Blocked distributes lines in contiguous equal chunks across nodes — the
// distribution used when each processor's partition is contiguous (FFT
// rows, LU/Ocean subgrids).
func Blocked() Placement {
	return func(i, total, procs int) int {
		if total == 0 {
			return 0
		}
		h := i * procs / total
		if h >= procs {
			h = procs - 1
		}
		return h
	}
}

// Interleaved distributes consecutive lines round-robin across nodes —
// approximating the "no attempt at intelligent distribution" case (Barnes,
// FMM, Radiosity, Raytrace, Volrend), where pages end up scattered.
func Interleaved() Placement {
	return func(i, total, procs int) int { return i % procs }
}

// Owner places every line in one node's local memory (per-processor
// partitions explicitly allocated locally).
func Owner(o int) Placement {
	return func(i, total, procs int) int { return o % procs }
}

// Alloc reserves words of shared or private simulated memory with the given
// placement and returns its base address. Allocations are rounded up to
// whole cache lines so a line never spans allocations with different homes.
// Alloc may be called during a parallel phase (Radiosity subdivides
// patches); the baton serializes it like every other processor action.
func (m *Machine) Alloc(words int, shared bool, place Placement) Addr {
	if words < 0 {
		panic(fmt.Sprintf("mach: negative allocation %d", words))
	}
	if place == nil {
		place = Interleaved()
	}
	lineWords := m.memCfg.LineSize / WordBytes
	lines := (words + lineWords - 1) / lineWords
	if lines == 0 {
		lines = 1
	}

	base := len(m.homes)
	for i := 0; i < lines; i++ {
		h := place(i, lines, m.cfg.Procs)
		if h < 0 || h >= m.cfg.Procs {
			panic(fmt.Sprintf("mach: placement returned node %d of %d", h, m.cfg.Procs))
		}
		m.homes = append(m.homes, int32(h))
		m.shared = append(m.shared, shared)
	}
	return Addr(base) * Addr(m.memCfg.LineSize)
}

// AllocatedWords returns the allocation high-water mark in words.
func (m *Machine) AllocatedWords() uint64 {
	return uint64(len(m.homes)) * uint64(m.memCfg.LineSize/WordBytes)
}
