// Package core is the characterization engine — the paper's methodological
// contribution. It runs the SPLASH-2 programs over controlled machine and
// problem parameters and regenerates every table and figure of the
// evaluation: instruction breakdowns (Table 1), PRAM speedups (Figure 1),
// synchronization profiles (Figure 2), working sets via miss rate versus
// cache size and associativity (Figure 3, Table 2), traffic breakdowns and
// their scaling (Figures 4–6, Table 3), and spatial locality / false
// sharing versus line size (Figures 7–8).
package core

import (
	"fmt"

	"splash2/internal/apps"
	"splash2/internal/mach"
	"splash2/internal/memsys"
)

// Scale selects problem sizes for an experiment: Default uses each
// program's registered defaults; Sweep uses smaller inputs sized for the
// many-point parameter sweeps (the paper's own methodology: scaled-down
// problems are valid once the working-set interplay is understood, §5).
type Scale int

const (
	// DefaultScale runs each program's registered default problem.
	DefaultScale Scale = iota
	// SweepScale runs reduced problems for multi-point sweeps.
	SweepScale
	// PaperScale runs the paper's published default problem sizes
	// (Table 1). Expect hours per full characterization: this exists for
	// spot-checking single programs, e.g.
	// core.Run("fft", cfg, PaperScale.Overrides("fft")).
	PaperScale
)

// sweepOverrides are the reduced problem parameters used by SweepScale.
var sweepOverrides = map[string]map[string]int{
	"barnes":    {"n": 256, "steps": 1},
	"cholesky":  {"nblocks": 16, "b": 4},
	"fft":       {"n": 1024},
	"fmm":       {"n": 256, "steps": 1, "terms": 8},
	"lu":        {"n": 64, "b": 8},
	"ocean":     {"n": 32, "steps": 1, "vcycles": 2},
	"radiosity": {"panels": 1, "iters": 2},
	"radix":     {"n": 8192, "radix": 64, "maxkey": 1 << 18},
	"raytrace":  {"width": 32, "spheres": 16, "grid": 4, "tile": 4},
	"volrend":   {"dim": 16, "width": 24, "frames": 1, "tile": 4},
	"water-nsq": {"n": 64, "steps": 1},
	"water-sp":  {"n": 125, "steps": 1},
}

// paperOverrides are the paper's Table-1 default problem sizes.
var paperOverrides = map[string]map[string]int{
	"barnes":    {"n": 16384, "steps": 4},
	"cholesky":  {"nblocks": 128, "b": 16}, // tk15.O-order working set
	"fft":       {"n": 65536},
	"fmm":       {"n": 16384, "steps": 4},
	"lu":        {"n": 512, "b": 16},
	"ocean":     {"n": 256, "steps": 4},
	"radiosity": {"panels": 4, "iters": 6}, // room-order patch counts
	"radix":     {"n": 1 << 20, "radix": 1024, "maxkey": 1 << 30},
	"raytrace":  {"width": 256, "spheres": 128, "grid": 16},
	"volrend":   {"dim": 256, "width": 128, "frames": 4},
	"water-nsq": {"n": 512, "steps": 4},
	"water-sp":  {"n": 512, "steps": 4},
}

// Overrides returns the option overrides for an app at a scale.
func (s Scale) Overrides(app string) map[string]int {
	switch s {
	case SweepScale:
		return sweepOverrides[app]
	case PaperScale:
		return paperOverrides[app]
	}
	return nil
}

// Suite is the canonical program order used by the paper's tables.
var Suite = []string{
	"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
	"radiosity", "radix", "raytrace", "volrend", "water-nsq", "water-sp",
}

// RunResult is one program execution on one machine configuration.
type RunResult struct {
	App   string
	Cfg   mach.Config
	Stats mach.Stats
}

// Run executes one program on a fresh machine and snapshots measurement.
// Verification is skipped (sweeps run hundreds of configurations); the
// test suite verifies every program separately.
func Run(app string, cfg mach.Config, over map[string]int) (*RunResult, error) {
	x, _, err := execute(app, cfg, over, nil, false)
	if err != nil {
		return nil, err
	}
	return &RunResult{App: app, Cfg: cfg, Stats: x.Stats}, nil
}

// RunVerified is Run plus the program's own correctness check.
func RunVerified(app string, cfg mach.Config, over map[string]int) (*RunResult, error) {
	x, prog, err := execute(app, cfg, over, nil, false)
	if err != nil {
		return nil, err
	}
	if err := prog.Verify(); err != nil {
		return nil, err
	}
	return &RunResult{App: app, Cfg: cfg, Stats: x.Stats}, nil
}

// RecordApp executes one program under the count-only model while
// capturing its global reference trace, returning the trace and the
// run's counters. The trace can then be replayed through arbitrary cache
// configurations (memsys.Replay), which keeps the reference stream
// identical across a parameter sweep — the comparability property §2.2
// adopts PRAM timing for — and avoids re-executing the program at every
// sweep point.
func RecordApp(app string, procs int, over map[string]int) (*memsys.Trace, mach.Stats, error) {
	x, _, err := execute(app, mach.Config{Procs: procs, MemModel: mach.CountOnly}, over, nil, true)
	if err != nil {
		return nil, mach.Stats{}, err
	}
	return x.trace, x.Stats, nil
}

// execution is what one program execution produced: the machine's
// counters and PRAM time, one memsys.Stats per tap, and — when recorded —
// the reference trace, stored under its record pick's key. Run,
// RecordApp and the engine's exec jobs all execute through execute.
type execution struct {
	Stats mach.Stats     `json:"stats"`
	Taps  []memsys.Stats `json:"taps"`
	// trace is the recording, when execute records; the engine's exec
	// job hands it to its record pick (exec.go) before it is memoized.
	trace *memsys.Trace
}

// execute runs app once on a fresh machine configured by cfg, with one
// memory system attached per taps entry and, if record, the recorder
// capturing the reference stream. PRAM timing keeps the execution path
// independent of what is attached (§2.2), so the counters equal a
// count-only run's, each tap's statistics a standalone FullMem run's at
// that configuration, and the trace RecordApp's
// (TestTappedExecutionMatchesSeparateRuns). It also returns the built
// program, for its correctness check.
func execute(app string, cfg mach.Config, over map[string]int, taps []memsys.Config, record bool) (*execution, apps.Runner, error) {
	m, err := mach.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", app, err)
	}
	systems := make([]*memsys.System, len(taps))
	for i, mc := range taps {
		if systems[i], err = m.Attach(mc); err != nil {
			return nil, nil, fmt.Errorf("core: %s: %w", app, err)
		}
	}
	prog, err := apps.BuildWithDefaults(app, m, over)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", app, err)
	}
	if record {
		m.StartRecording()
	}
	prog.Run(m)
	x := &execution{}
	if record {
		x.trace = m.FinishRecording()
	}
	x.Stats = m.Snapshot()
	for _, sys := range systems {
		x.Taps = append(x.Taps, sys.Stats())
	}
	return x, prog, nil
}

// flopBased reports whether an app's traffic is normalized per FLOP.
func flopBased(app string) bool {
	a, err := apps.Get(app)
	return err == nil && a.FlopBased
}

// opCount is the denominator of normalized traffic: the run's FLOPs for
// a floating-point code, its instructions otherwise, and never zero.
func opCount(perFlop bool, procs []mach.Counters) float64 {
	a := mach.Aggregate(procs)
	n := a.Instr
	if perFlop {
		n = a.Flops
	}
	return float64(max(n, 1))
}
