// Command benchpair compares two commits on the repository's benchmark
// with a verdict the host's drift cannot flip: it runs both builds in
// interleaved pairs and judges each end-to-end metric by the median
// pairwise ratio, its bootstrap 95 % interval and a Wilcoxon signed-rank
// test (Touati et al., PAPERS.md).
//
//	go run ./cmd/benchpair -base HEAD~1 -workload report-warm
//	go run ./cmd/benchpair -base v1 -head v2 -workload report-cold,serve-mix
//
// Each ref is extracted by piping `git archive` into `tar -x` in a
// temporary directory, removed at exit, and its bench/ module is built
// once there. Each of 12 pairs runs `bench --workload W --seconds S
// --trace 0` from <tree>/bench, as `go run -C <tree>/bench .` does, base
// first on even pairs and head first on odd ones (ABBA), and reads the
// JSON object on the last line of its output. The run length S, the
// end-to-end metrics and whether lower is better come from the head
// tree's BENCHMARK.json. Per metric it prints the base median and
// quartiles, the head median, the median of head/base, its interval, the
// p-value, the pairs head won and one call: faster, slower or not
// significant. A run whose output check fails, or that exits non-zero,
// stops the comparison with exit status 1.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// benchLine is the last line of a bench run's standard output.
type benchLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// benchmark is what benchpair reads of BENCHMARK.json: how long one run
// measures and which metrics judge it.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// side is one ref under comparison: its extracted tree and bench binary.
type side struct {
	name, tree, bin string
}

func main() {
	base := flag.String("base", "HEAD~1", "git ref of the baseline")
	head := flag.String("head", "HEAD", "git ref of the change")
	workloads := flag.String("workload", "", "comma-separated bench workloads (required)")
	seed := flag.Int64("seed", 1, "bench --seed for every run")
	flag.Parse()
	if *workloads == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *base, *head, strings.Split(*workloads, ","), *seed)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, baseRef, headRef string, workloads []string, seed int64) error {
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var sides [2]side
	for i, ref := range []string{baseRef, headRef} {
		if sides[i], err = prepare(ctx, ref, filepath.Join(tmp, strconv.Itoa(i))); err != nil {
			return err
		}
	}
	b, err := readBenchmark(filepath.Join(sides[1].tree, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	metrics := b.EndToEnd
	args := []string{"--seconds", strconv.FormatFloat(b.RunSeconds, 'g', -1, 64), "--seed", strconv.FormatInt(seed, 10), "--trace", "0"}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6265_6e63_6870_6169))
	for _, w := range workloads {
		fmt.Printf("%s: %d pairs, base %s vs head %s, --seconds %g\n", w, pairs, sides[0].name, sides[1].name, b.RunSeconds)
		values := make([][2][]float64, len(metrics)) // per metric, per side
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				s := (p + k) % 2 // ABBA: base first on even pairs
				line, err := runBench(ctx, sides[s], append([]string{"--workload", w}, args...))
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, p, sides[s].name, err)
				}
				for i, m := range metrics {
					got, ok := line.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s pair %d, %s: no metric %s", w, p, sides[s].name, m.Name)
					}
					values[i][s] = append(values[i][s], got.Value)
				}
			}
		}
		fmt.Printf("  %-8s %-32s %10s %7s %17s %8s %6s  %s\n", "metric", "base median (q1-q3)", "head", "ratio", "95% CI", "p", "wins", "verdict")
		for i, m := range metrics {
			v := compare(values[i][0], values[i][1], m.Better == "lower", rng)
			base := fmt.Sprintf("%.4g (%.4g-%.4g)", v.BaseMed, v.BaseQ1, v.BaseQ3)
			fmt.Printf("  %-8s %-32s %10.4g %7.3f  [%6.3f, %6.3f] %8.4f %3d/%-2d  %s\n",
				m.Name, base, v.HeadMed, v.Ratio, v.CILo, v.CIHi, v.P, v.HeadWins, v.N, v.Call)
		}
	}
	return nil
}

// prepare extracts ref into dir and builds its bench module there.
func prepare(ctx context.Context, ref, dir string) (side, error) {
	rev, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", ref+"^{commit}").Output()
	if err != nil {
		return side{}, fmt.Errorf("resolving %s: %w", ref, err)
	}
	s := side{name: ref + " (" + strings.TrimSpace(string(rev)) + ")", tree: dir, bin: dir + ".bench"}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return s, err
	}
	archive := exec.CommandContext(ctx, "git", "archive", "--format=tar", ref)
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return s, err
	}
	if err := untar.Start(); err != nil {
		return s, err
	}
	err = archive.Run()
	if uerr := untar.Wait(); err == nil && uerr != nil {
		err = uerr
	}
	if err != nil {
		return s, fmt.Errorf("extracting %s: %w", ref, err)
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", s.bin, ".")
	build.Dir = filepath.Join(dir, "bench")
	if msg, err := build.CombinedOutput(); err != nil {
		return s, fmt.Errorf("building bench at %s: %w\n%s", s.name, err, msg)
	}
	return s, nil
}

func readBenchmark(path string) (benchmark, error) {
	var b benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.RunSeconds <= 0 || len(b.EndToEnd) == 0 {
		return b, fmt.Errorf("%s names no run_seconds or no end-to-end metric", path)
	}
	return b, nil
}

// runBench runs one bench process and returns its last output line.
func runBench(ctx context.Context, s side, args []string) (benchLine, error) {
	var line benchLine
	cmd := exec.CommandContext(ctx, s.bin, args...)
	cmd.Dir = filepath.Join(s.tree, "bench")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err != nil {
		return line, fmt.Errorf("%w\n%s", err, out)
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("last output line %q: %w", last, err)
	}
	if !line.Correct || line.Failed > 0 {
		return line, fmt.Errorf("output check failed: %d of %d operations\n%s", line.Failed, line.Attempted, out)
	}
	return line, nil
}
