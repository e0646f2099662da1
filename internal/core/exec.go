package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"splash2/internal/mach"
	"splash2/internal/memsys"
	"splash2/internal/runner"
)

// One execution per program point.
//
// PRAM timing makes a program's execution path independent of the memory
// system (§2.2), so every experiment a request asks of one (app, procs,
// opts) point — the count-only counters of Table 1 and Figures 1–2, the
// 1 MB and 64 KB full-memory runs of Figures 4–6 and Table 3, the trace
// that Figures 3 and 7–8 replay — comes out of one execution. A request
// builds one job graph (a batch). While its sections submit, each run
// and record job is a cheap pick that registers what it needs of its
// point. Before the graph runs, wait submits one lazy exec job per point,
// keyed by exactly the memory configurations it feeds, and makes the
// point's picks depend on it. The picks keep their own keys and cache
// entries, so a cache filled before executions were shared still serves
// them, and a fully cached point never executes at all.

// batch is one request's job graph with its execution plan.
type batch struct {
	e      *Engine
	g      *runner.Graph
	points map[pointKey]*execPoint
	order  []*execPoint // first-registration order, so exec jobs submit deterministically
}

// pointKey identifies a program point within a batch: the machine that
// executes it (processors, line size) and the program with its options.
type pointKey struct {
	app             string
	procs, lineSize int
	opts            string // fmt of the canonical options; fmt sorts map keys
}

// execIdent is the cache identity of one execution: the program point
// and, in canonical order, every memory configuration it fed. Whether
// the recorder rode along is not part of it — the trace never enters the
// cache.
type execIdent struct {
	App      string          `json:"app"`
	Procs    int             `json:"procs"`
	LineSize int             `json:"lineSize"`
	Opts     map[string]int  `json:"opts"`
	Taps     []memsys.Config `json:"taps"`
}

// execPoint is one program point's plan: what its picks asked for, the
// picks themselves, and — once wait submits it — the exec job feeding
// them.
type execPoint struct {
	id     execIdent
	record bool
	spill  string // with trace spilling on, the record pick's key
	picks  []runner.Handle
	job    runner.Job[*execution]
}

// newBatch starts a request's graph.
func (e *Engine) newBatch() *batch {
	return &batch{e: e, g: e.newGraph(), points: map[pointKey]*execPoint{}}
}

// point returns the plan of the point a pick with machine configuration
// cfg belongs to, creating it on first use.
func (b *batch) point(app string, cfg mach.Config, over map[string]int) *execPoint {
	mc := cfg.MemConfig()
	over = canonOpts(over)
	k := pointKey{app: app, procs: mc.Procs, lineSize: mc.LineSize, opts: fmt.Sprint(over)}
	pt, ok := b.points[k]
	if !ok {
		pt = &execPoint{id: execIdent{App: app, Procs: mc.Procs, LineSize: mc.LineSize, Opts: over}}
		b.points[k] = pt
		b.order = append(b.order, pt)
	}
	return pt
}

// runJob submits a pick (kind "run") serving one program execution on
// one machine configuration from its point's execution: the counters,
// plus the statistics of the tap matching cfg under FullMem.
func (b *batch) runJob(app string, cfg mach.Config, over map[string]int) runner.Job[*RunResult] {
	ident := runIdent{App: app, Opts: canonOpts(over), Mem: cfg.MemConfig(), MemModel: int(cfg.MemModel)}
	full := cfg.MemModel == mach.FullMem
	var pt *execPoint // set below unless the pick was memoized; read only when it runs
	j := runner.Submit(b.g, runner.Spec{
		Label: fmt.Sprintf("run %s p=%d cache=%dK/%d-way/%dB model=%d",
			app, ident.Mem.Procs, ident.Mem.CacheSize/1024, ident.Mem.Assoc, ident.Mem.LineSize, cfg.MemModel),
		Key: runner.KeyOf("run", ident),
	}, func(ctx context.Context) (*RunResult, error) {
		x, err := pt.job.Result()
		if err != nil {
			return nil, err
		}
		st := x.Stats
		if full {
			st.Mem = x.Taps[slices.Index(pt.id.Taps, ident.Mem)]
		}
		return &RunResult{App: app, Cfg: cfg, Stats: st}, nil
	})
	if !j.Done() {
		pt = b.point(app, cfg, over)
		if full {
			pt.id.Taps = append(pt.id.Taps, ident.Mem)
		}
		pt.picks = append(pt.picks, j)
	}
	return j
}

// countRuns submits one count-only run per program at procs processors.
// Table 1 and Figure 2 submit the same jobs, and Figure 1 the same at
// req.Procs; every one of them is served by its point's execution.
func (b *batch) countRuns(req Request, procs int) []runner.Job[*RunResult] {
	jobs := make([]runner.Job[*RunResult], len(req.Apps))
	for i, name := range req.Apps {
		jobs[i] = b.runJob(name, mach.Config{Procs: procs, MemModel: mach.CountOnly}, req.overrides(name))
	}
	return jobs
}

// recordJob submits a trace pick (kind "record"): lazy — it runs only
// when an uncached replay demands the trace — and never written to the
// disk cache (traces are large; replay results are cached instead),
// though memoized in memory so the Figure-3 and Figure-7/8 sweeps share
// one trace per program. It takes the trace its point's execution
// recorded; an execution served from the cache, from another process's
// lease or from an earlier graph carries none, and the pick records on
// its own. With trace spilling on (kind "recordv2") only where the bytes
// live changes: the execution spills them (see wait), and a pick that
// must record serves an earlier run's verified container if it can.
func (b *batch) recordJob(id traceIdent) runner.Job[recordOut] {
	e := b.e
	kind := "record"
	if e.spillDir != "" {
		kind = "recordv2"
	}
	key := runner.KeyOf(kind, id)
	var pt *execPoint // as in runJob
	j := runner.Submit(b.g, runner.Spec{
		Label:   fmt.Sprintf("%s %s p=%d", kind, id.App, id.Procs),
		Key:     key,
		Lazy:    true,
		NoStore: true,
	}, func(ctx context.Context) (recordOut, error) {
		x, err := pt.job.Result()
		if err != nil {
			return recordOut{}, err
		}
		if tr := x.trace.Swap(nil); tr != nil {
			return recordOut{Trace: tr, Stats: x.Stats}, nil
		}
		record := func() (recordOut, error) {
			tr, st, err := RecordApp(id.App, id.Procs, id.Opts)
			return recordOut{Trace: tr, Stats: st}, err
		}
		if e.spillDir != "" {
			return e.spill(key.String(), record)
		}
		return record()
	})
	if !j.Done() {
		pt = b.point(id.App, mach.Config{Procs: id.Procs, MemModel: mach.CountOnly}, id.Opts)
		pt.record = true
		if e.spillDir != "" {
			pt.spill = key.String()
		}
		pt.picks = append(pt.picks, j)
	}
	return j
}

// wait completes the plan — one lazy, stored and leased exec job per
// point that has pending picks, each pick depending on it — and runs the
// graph. With trace spilling on, an execution spills its recording
// before it returns: a pick waits for a worker behind every execution
// already queued, and the recordings would pile up in memory meanwhile.
// Afterwards wait drops any trace no pick took (its replays were served
// from the cache), so memoized executions never pin one.
func (b *batch) wait() error {
	for _, pt := range b.order {
		if len(pt.picks) == 0 {
			continue
		}
		slices.SortFunc(pt.id.Taps, compareConfigs)
		pt.id.Taps = slices.Compact(pt.id.Taps)
		id, record, spill := pt.id, pt.record, pt.spill
		pt.job = runner.Submit(b.g, runner.Spec{
			Label: execLabel(id, record),
			Key:   runner.KeyOf("exec", id),
			Lazy:  true,
		}, func(ctx context.Context) (*execution, error) {
			x, _, err := execute(id.App, mach.Config{Procs: id.Procs, LineSize: id.LineSize, MemModel: mach.CountOnly}, id.Opts, id.Taps, record)
			if err != nil || spill == "" {
				return x, err
			}
			out, err := b.e.spill(spill, func() (recordOut, error) {
				return recordOut{Trace: x.trace.Load(), Stats: x.Stats}, nil
			})
			if err != nil {
				return nil, err
			}
			x.trace.Store(out.Trace)
			return x, nil
		})
		for _, p := range pt.picks {
			b.g.Depend(p, pt.job)
		}
	}
	err := b.g.Wait(b.e.ctx)
	for _, pt := range b.order {
		if !pt.record {
			continue
		}
		if x, xerr := pt.job.Result(); xerr == nil {
			if tr := x.trace.Swap(nil); tr != nil {
				tr.Close()
			}
		}
	}
	return err
}

// compareConfigs orders memory configurations canonically for exec keys.
func compareConfigs(a, b memsys.Config) int {
	return cmp.Or(
		cmp.Compare(a.CacheSize, b.CacheSize),
		cmp.Compare(a.Assoc, b.Assoc),
		cmp.Compare(a.LineSize, b.LineSize),
		cmp.Compare(a.OverheadBytes, b.OverheadBytes),
		cmp.Compare(a.Procs, b.Procs),
		compareBool(a.NoReplacementHints, b.NoReplacementHints),
	)
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// execLabel names an exec job by its point and taps, e.g.
// "exec ocean p=32 n=128 taps=64K/4-way,1024K/4-way +trace".
func execLabel(id execIdent, record bool) string {
	label := fmt.Sprintf("exec %s p=%d", id.App, id.Procs)
	var opts, taps []string
	//splash:allow determinism collected then sorted; iteration order cannot reach the label
	for k, v := range id.Opts {
		opts = append(opts, fmt.Sprintf("%s=%d", k, v))
	}
	slices.Sort(opts)
	for _, mc := range id.Taps {
		taps = append(taps, fmt.Sprintf("%dK/%s", mc.CacheSize/1024, assocLabel(mc.Assoc)))
	}
	if len(opts) > 0 {
		label += " " + strings.Join(opts, ",")
	}
	if len(taps) > 0 {
		label += " taps=" + strings.Join(taps, ",")
	}
	if record {
		label += " +trace"
	}
	return label
}
