// Command splashlint is the repository's static analyzer: it enforces
// the invariants the characterization rests on — reference-stream
// accounting, processor ownership, determinism of result paths, the
// fault-injection label taxonomy, and the flow-sensitive lockset /
// context / durability / epoch / time-taint contracts. Pure standard
// library: packages are parsed and type-checked from source, no
// go/packages, no go list.
//
// Usage:
//
//	splashlint ./...                  # whole repository
//	splashlint ./internal/apps/...    # one subtree
//	splashlint -checks accounting,procflow ./...
//	splashlint -format json ./...     # machine-readable findings
//	splashlint -format sarif ./...    # SARIF 2.1.0 (CI annotations)
//	splashlint -list                  # describe the checks
//
// The -checks flag accepts a comma-separated list of check names; only
// a run of every check judges unused suppression directives.
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//splash:allow <check> <reason>
//
// The reason is mandatory, and unused directives are themselves
// findings, so suppressions cannot rot.
//
// Exit status: 0 — clean; 1 — usage error (including a pattern that
// matches no packages); 2 — findings reported; 3 — internal error
// (parse or type-check failure).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"splash2/internal/analysis"
)

// Exit statuses: clean, bad usage, findings, internal error — the same
// taxonomy as cmd/characterize.
const (
	exitOK       = 0
	exitUsage    = 1
	exitFindings = 2
	exitInternal = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("splashlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format    = fs.String("format", "text", `output format: "text", "json", or "sarif"`)
		checkList = fs.String("checks", "", "comma-separated checks to run (default: all)")
		list      = fs.Bool("list", false, "list the available checks and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: splashlint [-format text|json|sarif] [-checks c1,c2] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "splashlint: unknown format %q (want text, json, or sarif)\n", *format)
		return exitUsage
	}

	all := analysis.DefaultChecks()
	if *list {
		for _, c := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return exitOK
	}

	checks := all
	subset := *checkList != ""
	if subset {
		byName := make(map[string]*analysis.Check, len(all))
		names := make([]string, 0, len(all))
		for _, c := range all {
			byName[c.Name] = c
			names = append(names, c.Name)
		}
		sort.Strings(names)
		checks = nil
		selected := make(map[string]bool)
		for _, name := range strings.Split(*checkList, ",") {
			name = strings.TrimSpace(name)
			c, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "splashlint: unknown check %q; available: %s\n", name, strings.Join(names, ", "))
				return exitUsage
			}
			if !selected[name] {
				selected[name] = true
				checks = append(checks, c)
			}
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return exitUsage
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "splashlint: %v\n", err)
		return exitInternal
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintf(stderr, "splashlint: %v\n", err)
		return exitInternal
	}

	pkgs, err := loader.Load(patterns...)
	if err != nil {
		var noPkgs *analysis.NoPackagesError
		if errors.As(err, &noPkgs) {
			fmt.Fprintf(stderr, "splashlint: %v\n", err)
			fmt.Fprintf(stderr, "splashlint: patterns are directories (\"./internal/mach\"), import paths, or recursive forms of either (\"./...\"), resolved relative to %s\n", wd)
			return exitUsage
		}
		fmt.Fprintf(stderr, "splashlint: %v\n", err)
		return exitInternal
	}
	diags := analysis.Run(loader.Fset(), pkgs, analysis.Options{
		Checks: checks,
		// With a check subset, directives for the skipped checks are
		// trivially unused; only a full run can judge them.
		KeepUnusedAllows: subset,
	})

	// Report paths relative to the working directory (clickable, stable
	// across checkouts).
	for i := range diags {
		if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "splashlint: %v\n", err)
			return exitInternal
		}
	case "sarif":
		if err := writeSARIF(stdout, all, diags); err != nil {
			fmt.Fprintf(stderr, "splashlint: %v\n", err)
			return exitInternal
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "splashlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return exitFindings
	}
	return exitOK
}
