package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"splash2/internal/core"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{core.ErrFailures, ExitDegraded},
		{fmt.Errorf("3 lost: %w", core.ErrFailures), ExitDegraded},
		{fmt.Errorf("wrapped: %w", core.ErrInvalidRequest), ExitUsage},
		{errors.New("disk on fire"), ExitRuntime},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestEngineFlags: the shared engine flags resolve into EngineOptions —
// -progress writes to the flag set's output — and the -no-cache/-cache-dir exclusion and a bad
// -fault rule are usage errors.
func TestEngineFlags(t *testing.T) {
	parse := func(args ...string) (core.EngineOptions, error) {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		resolve := EngineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return resolve()
	}
	o, err := parse("-j", "3", "-no-cache", "-progress", "-fault", "error=job:*")
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers != 3 || o.CacheDir != "" || o.Progress != io.Discard || o.Fault == nil {
		t.Errorf("options = %+v", o)
	}
	if o, err := parse("-cache-dir", "/x"); err != nil || o.CacheDir != "/x" {
		t.Errorf("options = %+v, %v", o, err)
	}
	for _, args := range [][]string{{"-no-cache", "-cache-dir", "/x"}, {"-no-cache", "-fault", "explode=job:*"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}

	// The shared flag set is exactly this: adding or dropping an engine
	// flag changes both binaries and must edit this list.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	EngineFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got, want := strings.Join(names, " "), "cache-dir fault fault-seed j no-cache progress timeout"; got != want {
		t.Errorf("engine flags = %s, want %s", got, want)
	}
}
