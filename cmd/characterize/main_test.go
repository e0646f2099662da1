package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splash2"
	"splash2/internal/core"
	"splash2/internal/serve"
)

// chaosArgs is a small, fast characterization every exit-code test
// builds on: one program, two processor counts, no disk cache.
func chaosArgs(extra ...string) []string {
	args := []string{"-apps", "fft", "-p", "2", "-plist", "1,2", "-no-cache", "-format", "json"}
	return append(args, extra...)
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestWarmRerunMatchesCold: a sweep-scale JSON export rerun on the cache
// directory its cold run filled prints the same bytes and executes
// nothing. The JSON export carries fields the text report never prints,
// so a stored form that dropped or bent one shows here.
func TestWarmRerunMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep report takes seconds")
	}
	args := []string{"-scale", "sweep", "-format", "json", "-progress", "-cache-dir", t.TempDir()}
	code, cold, stderr := runCLI(t, args...)
	if code != exitOK {
		t.Fatalf("cold run exited %d: %s", code, stderr)
	}
	code, warm, stderr := runCLI(t, args...)
	if code != exitOK {
		t.Fatalf("warm run exited %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, " — 0 executed, ") {
		t.Errorf("warm run executed jobs: %s", stderr)
	}
	if warm == cold {
		return
	}
	got, want := strings.Split(warm, "\n"), strings.Split(cold, "\n")
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("warm output differs from cold at line %d:\n warm: %s\n cold: %s", i+1, got[i], want[i])
		}
	}
	t.Fatalf("warm output has %d lines, cold %d", len(got), len(want))
}

func TestExitUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-scale", "bogus"},
		{"-format", "bogus"},
		{"-plist", "1,2abc"},
		{"-no-cache", "-cache-dir", "/tmp/x"},
		{"-fault", "explode=job:*"},
		{"-badflag"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, args...)
		if code != exitUsage {
			t.Errorf("run(%q) = %d, want %d (stderr: %s)", args, code, exitUsage, stderr)
		}
	}
}

func TestExitClean(t *testing.T) {
	code, stdout, stderr := runCLI(t, chaosArgs()...)
	if code != exitOK {
		t.Fatalf("clean run exited %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	var res splash2.Results
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("clean run reports failures: %+v", res.Failures)
	}
	if len(res.Table1) == 0 || res.Table1[0].App != "fft" {
		t.Fatalf("results missing table1 rows: %+v", res.Table1)
	}
}

func TestExitDegradedWithManifest(t *testing.T) {
	manifestPath := filepath.Join(t.TempDir(), "failures.json")
	code, stdout, stderr := runCLI(t, chaosArgs(
		"-keep-going",
		"-fault", "error@1=job:*",
		"-failures", manifestPath,
	)...)
	if code != exitDegraded {
		t.Fatalf("degraded run exited %d, want %d (stderr: %s)", code, exitDegraded, stderr)
	}
	if !strings.Contains(stderr, "experiment(s) lost") {
		t.Errorf("stderr does not summarize the damage: %s", stderr)
	}

	// Partial results still export, with the lost experiments listed.
	var res splash2.Results
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("degraded run exported no failure records")
	}

	// The -failures manifest is on disk and consistent with the export.
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("failure manifest not written: %v", err)
	}
	var m splash2.FailureManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Count == 0 || m.Count != len(m.Failures) {
		t.Fatalf("manifest count inconsistent: %+v", m)
	}
	for _, rec := range m.Failures {
		if rec.Skipped {
			continue
		}
		if !strings.Contains(rec.Cause, "injected fault") {
			t.Errorf("failure %q has cause %q, want the injected fault", rec.Label, rec.Cause)
		}
	}
}

func TestExitRuntimeOnFailFastFault(t *testing.T) {
	code, _, stderr := runCLI(t, chaosArgs("-fault", "error@1=job:*")...)
	if code != exitRuntime {
		t.Fatalf("fail-fast faulted run exited %d, want %d (stderr: %s)", code, exitRuntime, stderr)
	}
	if !strings.Contains(stderr, "injected fault") {
		t.Errorf("stderr does not surface the injected fault: %s", stderr)
	}
}

func TestCleanRunWritesNoManifestFile(t *testing.T) {
	manifestPath := filepath.Join(t.TempDir(), "failures.json")
	code, _, stderr := runCLI(t, chaosArgs("-keep-going", "-failures", manifestPath)...)
	if code != exitOK {
		t.Fatalf("clean keep-going run exited %d (stderr: %s)", code, stderr)
	}
	if _, err := os.Stat(manifestPath); !os.IsNotExist(err) {
		t.Fatalf("clean run left a manifest file (stat err: %v)", err)
	}
}

// TestFrontEndsRejectAlike runs one table of invalid specs through both
// front ends. Both validate with core.Request.Canonical, so each spec
// is a usage error before any job runs: characterize exits 1 without a
// single progress line, and splashd answers 400 without submitting a
// job.
func TestFrontEndsRejectAlike(t *testing.T) {
	cases := []struct {
		name  string
		args  []string // characterize flags
		query string   // the same spec as splashd query parameters
	}{
		{"unknown app", []string{"-apps", "bogus"}, "apps=bogus"},
		{"duplicate app", []string{"-apps", "fft,fft"}, "apps=fft,fft"},
		{"procs 65", []string{"-apps", "fft", "-p", "65"}, "apps=fft&procs=65"},
		{"plist 0", []string{"-apps", "fft", "-plist", "0"}, "apps=fft&plist=0"},
		{"plist 100", []string{"-apps", "fft", "-plist", "100"}, "apps=fft&plist=100"},
		{"sample rate 2", []string{"-apps", "fft", "-sample-rate", "2"}, "apps=fft&sampleRate=2"},
		{"sample rate NaN", []string{"-apps", "fft", "-sample-rate", "NaN"}, "apps=fft&sampleRate=NaN"},
		{"unknown scale", []string{"-apps", "fft", "-scale", "huge"}, "apps=fft&scale=huge"},
	}

	engine, err := core.NewEngine(core.EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(serve.New(context.Background(), engine, serve.Options{}).Handler())
	defer ts.Close()

	for _, tc := range cases {
		args := append([]string{"-no-cache", "-progress", "-format", "json"}, tc.args...)
		code, _, stderr := runCLI(t, args...)
		if code != exitUsage || strings.Contains(stderr, "[1/") {
			t.Errorf("%s: characterize exited %d, want %d before any job (stderr: %s)", tc.name, code, exitUsage, stderr)
		}

		resp, err := http.Get(ts.URL + "/v1/experiments?kind=results&" + tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: splashd answered %d %q, want 400", tc.name, resp.StatusCode, body)
		}
	}
	if n := engine.Counts().Submitted; n != 0 {
		t.Errorf("splashd submitted %d jobs for invalid specs, want 0", n)
	}
}
