// Package cli holds the conventions shared by the repository's
// command-line entry points (characterize, splashd): the process exit
// taxonomy and the engine flags both binaries register. Keeping them in
// one place pins the contract — scripts driving either binary see the
// same exit codes and the same flag grammar. A request's own fields have
// their text forms in core's request table (core.Request.Set).
package cli

import (
	"errors"
	"flag"
	"fmt"

	"splash2/internal/core"
	"splash2/internal/fault"
)

// Exit statuses shared by every binary: clean completion, bad usage,
// degraded completion under keep-going (results delivered, some
// experiments lost), hard runtime error.
const (
	ExitOK       = 0
	ExitUsage    = 1
	ExitDegraded = 2
	ExitRuntime  = 3
)

// ExitCode maps a run's terminal error to the exit taxonomy: nil is
// clean, core.ErrInvalidRequest (a request Canonical rejected before
// any job ran) is a usage error, core.ErrFailures (a keep-going run that
// lost experiments but delivered results) is degraded, anything else is
// a runtime error.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, core.ErrInvalidRequest):
		return ExitUsage
	case errors.Is(err, core.ErrFailures):
		return ExitDegraded
	default:
		return ExitRuntime
	}
}

// EngineFlags registers on fs the engine flags characterize and splashd
// share: -j, -cache-dir, -no-cache, -progress, -timeout,
// -fault and -fault-seed. Call the returned function after fs.Parse; it
// resolves them into engine options, or returns a usage error. Progress
// lines and the note that no default cache directory exists go to
// fs.Output().
func EngineFlags(fs *flag.FlagSet) func() (core.EngineOptions, error) {
	var (
		workers   = fs.Int("j", 0, "experiment-level parallelism (0 = GOMAXPROCS)")
		cacheDir  = fs.String("cache-dir", "", "result cache directory (default: <user cache dir>/splash2)")
		noCache   = fs.Bool("no-cache", false, "disable the on-disk result cache")
		progress  = fs.Bool("progress", false, "live per-experiment progress on stderr")
		timeout   = fs.Duration("timeout", 0, "per-experiment timeout (0 = none)")
		faultSpec = fs.String("fault", "", `inject deterministic faults: "action[(arg)][@nth]=pattern;..."`)
		faultSeed = fs.Int64("fault-seed", 1, "seed choosing the occurrence of @-nth fault rules")
	)
	return func() (core.EngineOptions, error) {
		o := core.EngineOptions{Workers: *workers, Timeout: *timeout}
		switch {
		case *noCache:
			if *cacheDir != "" {
				return o, errors.New("-no-cache and -cache-dir are mutually exclusive")
			}
		case *cacheDir != "":
			o.CacheDir = *cacheDir
		default:
			dir, err := core.DefaultCacheDir()
			if err != nil {
				fmt.Fprintf(fs.Output(), "%s: no user cache dir, running uncached: %v\n", fs.Name(), err)
			} else {
				o.CacheDir = dir
			}
		}
		if *progress {
			o.Progress = fs.Output()
		}
		if *faultSpec != "" {
			rules, err := fault.Parse(*faultSpec)
			if err != nil {
				return o, err
			}
			o.Fault = fault.New(*faultSeed, rules...)
		}
		return o, nil
	}
}
