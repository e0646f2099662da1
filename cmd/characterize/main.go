// Command characterize regenerates the paper's evaluation — Table 1,
// Figures 1–8, Tables 2–3 — on the simulated multiprocessor and prints
// them as text tables (the same rows/series the paper reports).
//
// Usage:
//
//	characterize                      # full suite, sweep-scale problems, 32 procs
//	characterize -scale default       # default (larger) problem sizes
//	characterize -scale paper         # the paper's published sizes (slow)
//	characterize -apps fft,lu -p 16
//	characterize -all-assocs          # Figure 3 with 1/2/4-way and full
//	characterize -sample-rate 0.01    # add the SHARDS-sampled working-set estimate
//	characterize -sample-seed 7       # … with a different spatial-hash seed
//	characterize -plot                # ASCII charts alongside the tables
//	characterize -format json|csv     # machine-readable results
//	characterize -j 8                 # run experiments on 8 workers
//	characterize -no-cache            # skip the on-disk result cache
//	characterize -progress            # live per-experiment progress on stderr
//	characterize -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Fault tolerance:
//
//	characterize -keep-going          # complete past failed experiments
//	characterize -timeout 5m          # bound each experiment attempt
//	characterize -retries 2           # retry transiently failing experiments
//	characterize -failures fail.json  # write the JSON failure manifest
//	characterize -fault 'error@2=job:run fft*' -fault-seed 7   # chaos drill
//
// Crash safety and multi-process sharing:
//
//	characterize -resume              # reclaim a crashed run, then re-run (cache hits are the resume)
//	characterize -deadline 10m        # whole-run deadline; doomed work cancelled promptly
//	characterize -lease-ttl 10s      # cross-process work-lease expiry (0 disables leases)
//	characterize -no-journal          # skip the durable run journal
//
// Runs that share a cache directory hold per-experiment work leases, so
// two concurrent processes execute each expensive job once and the loser
// adopts the winner's stored result. Every run appends a journal under
// <cache-dir>/journal; after a kill -9, -resume reports what the dead
// run finished and sweeps its stale leases and temp files.
//
// Under -keep-going the run completes past failures: lost rows render as
// FAILED(label: cause) placeholders, the failure manifest summarizes the
// damage, and the process exits with status 2 instead of 0.
//
// Exit status: 0 — clean completion; 1 — usage error; 2 — completed
// with failures (-keep-going); 3 — runtime error.
//
// Results are cached on disk under <user cache dir>/splash2 (override
// with -cache-dir), keyed by program, options, machine configuration and
// suite version, so repeated runs only execute what changed. Note that a
// cached run executes no experiments, so when profiling pair the flags
// with -no-cache.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"splash2"
	"splash2/internal/cli"
)

// Exit statuses (shared with splashd via internal/cli): clean
// completion, bad usage, degraded completion under -keep-going, hard
// runtime error.
const (
	exitOK       = cli.ExitOK
	exitUsage    = cli.ExitUsage
	exitDegraded = cli.ExitDegraded
	exitRuntime  = cli.ExitRuntime
)

func main() {
	// All work happens in run so that deferred profile writers execute
	// before the process exits (os.Exit skips defers).
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appsFlag   = fs.String("apps", "", "comma-separated subset (default: full suite)")
		procs      = fs.Int("p", 32, "processors for fixed-count experiments")
		procList   = fs.String("plist", "1,2,4,8,16,32", "processor counts for scaling sweeps")
		scaleName  = fs.String("scale", "sweep", `problem sizes: "sweep", "default" or "paper"`)
		spill      = fs.Bool("spill-traces", false, "keep each recording's v2 bytes in an on-disk container instead of in memory")
		allAssocs  = fs.Bool("all-assocs", false, "Figure 3 with all associativities")
		sampleRate = fs.Float64("sample-rate", 0, "add the SHARDS-sampled working-set estimate at this rate, (0, 1] (0 = off)")
		sampleSeed = fs.Uint64("sample-seed", 1, "spatial-hash seed of the sampled estimator")
		plot       = fs.Bool("plot", false, "render ASCII charts alongside the tables")
		format     = fs.String("format", "text", `output format: "text", "json" or "csv"`)
		workers    = fs.Int("j", 0, "experiment-level parallelism (0 = GOMAXPROCS)")
		cacheDir   = fs.String("cache-dir", "", "result cache directory (default: <user cache dir>/splash2)")
		noCache    = fs.Bool("no-cache", false, "disable the on-disk result cache")
		progress   = fs.Bool("progress", false, "live per-experiment progress on stderr")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		resume       = fs.Bool("resume", false, "reclaim crashed runs in the cache dir (report dead journals, sweep stale leases/temps) before running")
		deadline     = fs.Duration("deadline", 0, "whole-run deadline; doomed work is cancelled promptly (0 = none)")
		leaseTTL     = fs.Duration("lease-ttl", splash2.DefaultLeaseTTL, "cross-process work-lease expiry; concurrent runs sharing the cache dir coalesce jobs (0 disables)")
		noJournal    = fs.Bool("no-journal", false, "disable the durable run journal under <cache-dir>/journal")
		keepGoing    = fs.Bool("keep-going", false, "complete past failed experiments (exit 2, FAILED placeholders)")
		timeout      = fs.Duration("timeout", 0, "per-experiment attempt timeout (0 = none)")
		retries      = fs.Int("retries", 0, "extra attempts for transiently failing experiments")
		retryBackoff = fs.Duration("retry-backoff", 0, "first-retry delay, doubling per retry (0 = default)")
		failuresOut  = fs.String("failures", "", "write the JSON failure manifest to this file (-keep-going)")
		faultSpec    = fs.String("fault", "", `inject deterministic faults: "action[(arg)][@nth]=pattern;..."`)
		faultSeed    = fs.Int64("fault-seed", 1, "seed choosing the occurrence of @-nth fault rules")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	o := splash2.ReportOptions{
		EngineOptions: splash2.EngineOptions{
			Workers: *workers, KeepGoing: *keepGoing, Timeout: *timeout, Retries: *retries,
			RetryBackoff: *retryBackoff, SpillTraces: *spill, Deadline: *deadline, NoJournal: *noJournal,
		},
		Procs: *procs, AllAssocs: *allAssocs, Plot: *plot,
		SampleRate: *sampleRate, SampleSeed: *sampleSeed,
	}
	if *sampleRate < 0 || *sampleRate > 1 {
		fmt.Fprintf(stderr, "characterize: -sample-rate %v out of range (0, 1]\n", *sampleRate)
		return exitUsage
	}
	if *leaseTTL <= 0 {
		o.LeaseTTL = -1 // user asked for no leases
	} else {
		o.LeaseTTL = *leaseTTL
	}
	if *appsFlag != "" {
		o.Apps = strings.Split(*appsFlag, ",")
	}
	var err error
	if o.ProcList, err = cli.ParseProcList(*procList); err != nil {
		fmt.Fprintln(stderr, "characterize:", err)
		return exitUsage
	}
	if o.Scale, err = cli.ParseScale(*scaleName); err != nil {
		fmt.Fprintln(stderr, "characterize:", err)
		return exitUsage
	}
	switch {
	case *noCache:
		if *cacheDir != "" {
			fmt.Fprintln(stderr, "characterize: -no-cache and -cache-dir are mutually exclusive")
			return exitUsage
		}
	case *cacheDir != "":
		o.CacheDir = *cacheDir
	default:
		dir, err := splash2.DefaultCacheDir()
		if err != nil {
			fmt.Fprintln(stderr, "characterize: no user cache dir, running uncached:", err)
		} else {
			o.CacheDir = dir
		}
	}
	if *resume {
		if o.CacheDir == "" {
			fmt.Fprintln(stderr, "characterize: -resume requires a cache directory")
			return exitUsage
		}
		rep, err := splash2.Resume(o.CacheDir, *leaseTTL)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return exitRuntime
		}
		rep.Render(stderr)
	}
	if *progress {
		o.Progress = stderr
	}
	if *faultSpec != "" {
		rules, err := splash2.ParseFaultRules(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return exitUsage
		}
		o.Fault = splash2.NewFaultInjector(*faultSeed, rules...)
	}
	// The manifest is buffered and written to -failures only when the run
	// actually lost experiments, so a clean run leaves no empty file.
	var manifest bytes.Buffer
	if *failuresOut != "" {
		o.ManifestOut = &manifest
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return exitRuntime
		}
		// Stop the profiler before closing so the profile's trailing
		// bytes are flushed, and surface the close error: a silently
		// truncated profile misleads whoever reads it.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "characterize: closing cpu profile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return exitRuntime
		}
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "characterize:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "characterize:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "characterize: closing heap profile:", err)
			}
		}()
	}

	var runErr error
	switch *format {
	case "text":
		runErr = splash2.Characterize(stdout, o)
	case "json", "csv":
		var res *splash2.Results
		res, runErr = splash2.CollectResults(o)
		if runErr != nil && !errors.Is(runErr, splash2.ErrFailures) {
			break
		}
		if o.ManifestOut != nil && len(res.Failures) > 0 {
			m := splash2.FailureManifest{Count: len(res.Failures), Failures: res.Failures}
			if err := m.WriteJSON(&manifest); err != nil {
				fmt.Fprintln(stderr, "characterize:", err)
				return exitRuntime
			}
		}
		var werr error
		if *format == "json" {
			werr = res.WriteJSON(stdout)
		} else {
			werr = res.WriteCSV(stdout)
		}
		if werr != nil {
			fmt.Fprintln(stderr, "characterize:", werr)
			return exitRuntime
		}
	default:
		fmt.Fprintf(stderr, "characterize: unknown format %q\n", *format)
		return exitUsage
	}

	if *failuresOut != "" && manifest.Len() > 0 {
		if err := os.WriteFile(*failuresOut, manifest.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return exitRuntime
		}
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "characterize:", runErr)
	}
	return cli.ExitCode(runErr)
}
