package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results_sweep.txt from this run")

// TestGoldenReport pins the sweep-scale report byte for byte against the
// committed results_sweep.txt, so a change to any table or figure fails
// here before it reaches a paper claim. After a change meant to move
// results, regenerate the file with
// `go test ./cmd/characterize -run TestGoldenReport -update`.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep report takes seconds")
	}
	code, stdout, stderr := runCLI(t, "-scale", "sweep", "-no-cache")
	if code != exitOK {
		t.Fatalf("characterize exited %d: %s", code, stderr)
	}
	golden := filepath.Join("..", "..", "results_sweep.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if stdout == string(want) {
		return
	}
	got, exp := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("report has %d lines, %s has %d", len(got), golden, len(exp))
}
