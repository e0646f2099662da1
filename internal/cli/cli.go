// Package cli holds the conventions shared by the repository's
// command-line entry points (characterize, splashd): the process exit
// taxonomy and the flag-value parsers both binaries accept. Keeping them
// in one place pins the contract — scripts driving either binary see
// the same exit codes and the same flag grammar.
package cli

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"splash2/internal/core"
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
// clean, core.ErrFailures (a keep-going run that lost experiments but
// delivered results) is degraded, anything else is a runtime error.
// Usage errors never reach this point — they are detected before a run
// starts.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, core.ErrFailures):
		return ExitDegraded
	default:
		return ExitRuntime
	}
}

// ParseProcList parses a comma-separated list of processor counts,
// rejecting anything that is not a whole positive integer (Sscanf-style
// parsing would silently accept trailing junk like "8abc"). The result
// is deduplicated and sorted ascending so sweeps are well-ordered.
func ParseProcList(s string) ([]int, error) {
	seen := make(map[int]bool)
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		p, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad -plist entry %q: not an integer", f)
		}
		if p < 1 {
			return nil, fmt.Errorf("bad -plist entry %q: must be ≥ 1", f)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out, nil
}

// ParseScale resolves a -scale flag value.
func ParseScale(name string) (core.Scale, error) { return core.ParseScale(name) }
