package memsys

import "fmt"

// Default machine parameters from the paper (§2.2, §5, §6): 1 MB 4-way
// set-associative caches with 64-byte lines.
const (
	DefaultCacheSize = 1 << 20
	DefaultAssoc     = 4
	DefaultLineSize  = 64
)

// OverheadBytes is the size of every overhead packet — requests,
// invalidations, acknowledgments, replacement hints, and headers for
// data transfers — on the paper's machine (§2.2, §6).
const OverheadBytes = 8

// Config describes one simulated memory system.
type Config struct {
	// Procs is the number of processors (one per node).
	Procs int
	// CacheSize is the per-processor cache capacity in bytes.
	CacheSize int
	// Assoc is the set associativity; FullyAssoc means fully associative.
	Assoc int
	// LineSize is the cache line size in bytes (power of two, ≥ WordBytes).
	LineSize int
	// NoReplacementHints disables the replacement hints of §2.2 for
	// Shared-line evictions (ablation): the home's sharer list goes stale
	// and later invalidating actions send spurious invalidations.
	NoReplacementHints bool
}

// FullyAssoc selects a fully associative cache when used as Config.Assoc.
const FullyAssoc = 0

// WithDefaults fills zero fields with the paper's default parameters and
// returns the result. Assoc is left alone: zero means fully associative.
func (c Config) WithDefaults() Config {
	if c.Procs == 0 {
		c.Procs = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.LineSize == 0 {
		c.LineSize = DefaultLineSize
	}
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Procs <= 0:
		return fmt.Errorf("memsys: Procs must be positive, got %d", c.Procs)
	case c.Procs > 64:
		return fmt.Errorf("memsys: at most 64 processors supported (full-map directory bitset), got %d", c.Procs)
	case c.LineSize < WordBytes || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("memsys: LineSize must be a power of two ≥ %d, got %d", WordBytes, c.LineSize)
	case c.CacheSize < c.LineSize || c.CacheSize%c.LineSize != 0:
		return fmt.Errorf("memsys: CacheSize %d not a multiple of LineSize %d", c.CacheSize, c.LineSize)
	case c.Assoc < 0:
		return fmt.Errorf("memsys: Assoc must be ≥ 0, got %d", c.Assoc)
	case c.Assoc > 0 && (c.CacheSize/c.LineSize)%c.Assoc != 0:
		return fmt.Errorf("memsys: %d lines not divisible into %d-way sets", c.CacheSize/c.LineSize, c.Assoc)
	}
	return nil
}

// lines returns the number of cache lines per processor cache.
func (c Config) lines() int { return c.CacheSize / c.LineSize }

// sets returns the number of sets per cache (1 when fully associative).
func (c Config) sets() int {
	if c.Assoc == FullyAssoc {
		return 1
	}
	return c.lines() / c.Assoc
}

// ways returns the associativity actually used per set.
func (c Config) ways() int {
	if c.Assoc == FullyAssoc {
		return c.lines()
	}
	return c.Assoc
}
