package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixture is a seeded-violation package (analyzer testdata), relative
// to this directory — guaranteed to produce findings.
const fixture = "../../internal/analysis/testdata/src/accounting"

// cleanPkg has no findings and a tiny import closure.
const cleanPkg = "../../internal/workload"

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitOKOnCleanPackage(t *testing.T) {
	code, stdout, stderr := runLint(t, cleanPkg)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stdout=%q stderr=%q)", code, exitOK, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run printed findings: %q", stdout)
	}
}

func TestExitFindingsOnSeededViolations(t *testing.T) {
	code, stdout, stderr := runLint(t, fixture)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitFindings, stderr)
	}
	if !strings.Contains(stdout, "accounting:") {
		t.Fatalf("findings output missing check name: %q", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Fatalf("stderr missing summary: %q", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-format", "json", fixture)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Check == "" || d.Message == "" {
			t.Fatalf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestExitUsage(t *testing.T) {
	cases := [][]string{
		{},                             // no packages
		{"-nonsense-flag", "./..."},    // unknown flag
		{"-checks", "bogus", cleanPkg}, // unknown check
	}
	for _, args := range cases {
		if code, _, _ := runLint(t, args...); code != exitUsage {
			t.Errorf("args %v: exit = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestExitInternalOnBadPackage(t *testing.T) {
	code, _, stderr := runLint(t, "./does/not/exist")
	if code != exitInternal {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitInternal, stderr)
	}
}

// TestZeroMatchPatternExitsUsage: a recursive pattern matching no
// packages is a usage error with a diagnostic naming the pattern, not
// an internal failure — and not a silent success.
func TestZeroMatchPatternExitsUsage(t *testing.T) {
	for _, args := range [][]string{
		{"./nonexistent/..."},
		{cleanPkg, "./nonexistent/..."}, // mixed with a matching pattern
	} {
		code, _, stderr := runLint(t, args...)
		if code != exitUsage {
			t.Errorf("args %v: exit = %d, want %d (stderr=%q)", args, code, exitUsage, stderr)
		}
		if !strings.Contains(stderr, "no packages match") || !strings.Contains(stderr, "./nonexistent/...") {
			t.Errorf("args %v: stderr does not name the failing pattern: %q", args, stderr)
		}
	}
}

// TestUnknownCheckListsAvailable: the error must teach the valid names.
func TestUnknownCheckListsAvailable(t *testing.T) {
	code, _, stderr := runLint(t, "-checks", "bogus", cleanPkg)
	if code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
	for _, want := range []string{"unknown check \"bogus\"", "available:", "accounting", "locks", "timetaint"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	code, _, stderr := runLint(t, "-format", "xml", cleanPkg)
	if code != exitUsage || !strings.Contains(stderr, "unknown format") {
		t.Fatalf("exit=%d stderr=%q, want usage error naming the format", code, stderr)
	}
}

// TestSARIFOutput: -format sarif must produce a valid SARIF 2.1.0 log
// with one result per finding, positioned for PR annotation.
func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runLint(t, "-format", "sarif", fixture)
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "splashlint" || len(run.Tool.Driver.Rules) == 0 {
		t.Fatalf("driver = %+v", run.Tool.Driver)
	}
	if len(run.Results) == 0 {
		t.Fatal("no results for a fixture with seeded findings")
	}
	for _, r := range run.Results {
		if r.RuleID == "" || r.Level != "error" || r.Message.Text == "" || len(r.Locations) != 1 {
			t.Fatalf("incomplete result: %+v", r)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || strings.Contains(loc.ArtifactLocation.URI, "\\") || loc.Region.StartLine <= 0 {
			t.Fatalf("unusable location: %+v", loc)
		}
	}
}

func TestListChecks(t *testing.T) {
	code, stdout, _ := runLint(t, "-list")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d", code, exitOK)
	}
	for _, name := range []string{"accounting", "procflow", "determinism", "faultpoints"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
}

// TestChecksSubset: a subset run must not report unused-directive
// findings for the checks that did not run (the accounting fixture has
// an accounting suppression; procflow-only must stay silent about it).
func TestChecksSubset(t *testing.T) {
	code, stdout, stderr := runLint(t, "-checks", "procflow", fixture)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stdout=%q stderr=%q)", code, exitOK, stdout, stderr)
	}
}
