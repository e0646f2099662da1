// Command bench is this repository's benchmark: four workloads, three
// end-to-end metrics measured with tracing off, and a traced run that
// prints every per-layer metric. BENCHMARK.json at the repository root
// names the metrics and their regression bounds; README.md says who each
// workload stands for and which layer should move which number.
//
//	go run -C bench . --workload report-cold --seed 1 --seconds 15 --trace 0
//	go run -C bench . --seed 1            # every workload, then the traced run
//	go run -C bench . --seed 1 --runs 10  # the same ten times, with spreads
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// an output check fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// outDir receives result.json, trace.json and the run's scratch files. It
// is relative to the working directory, which `go run -C bench` makes the
// benchmark's own directory.
const outDir = "out"

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as result.json keeps it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	line
	// Samples has the quartiles, n and tail percentile behind each
	// end-to-end median.
	Samples map[string]summary `json:"samples,omitempty"`
	// CalibMs is a fixed arithmetic loop timed before and after the run;
	// Noisy is set when the two differ by more than 15 %, which says the
	// host changed speed under the run.
	CalibMs [2]float64 `json:"calib_ms"`
	Noisy   bool       `json:"noisy"`
	// PeakRSSMB is the process's peak resident set: per workload, because
	// every run is a process of its own.
	PeakRSSMB float64  `json:"peak_rss_mb"`
	Failures  []string `json:"failures,omitempty"`
}

// calibrate times a fixed splitmix64 loop in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	var x, sum uint64
	for i := 0; i < 100_000_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		sum += z ^ (z >> 31)
	}
	if sum == 0 { // keeps the loop from being optimised away
		fmt.Fprintln(os.Stderr)
	}
	return float64(time.Since(t0)) / 1e6
}

// run measures one workload. With traced set it instead runs the traced
// phase: one span-wrapped pass over every workload plus the layer probes,
// because a traced run prints every per-layer metric whatever the
// workload.
func run(cfg config, workload string, seed int64, seconds float64, traced bool) (record, *tracer, error) {
	rec := record{Workload: workload, Seed: seed, Seconds: seconds}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rec, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return rec, nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, seed: seed, dir: dir, nproc: runtime.GOMAXPROCS(0), layer: map[string]metric{}}

	rec.CalibMs[0] = calibrate()
	if traced {
		rec.Trace = 1
		b.cfg.minSweep, b.cfg.minRounds, b.cfg.sweepSetups, b.cfg.coldPasses = 1, 1, 1, 1
		b.warmUp() // as report-cold does, so that the traced sections compare with its wall_s
		b.tr = newTracer()
		b.tracedReports()
		b.runTraceSweep(0)
		b.runServeMix(0)
		b.probes()
		rec.Metrics = b.layer
	} else {
		var s samples
		switch workload {
		case reportCold:
			s = b.runReportCold(seconds)
		case reportWarm:
			s = b.runReportWarm(seconds)
		case traceSweep:
			s = b.runTraceSweep(seconds)
		case serveMix:
			s = b.runServeMix(seconds)
		default:
			return rec, nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
		}
		rec.Samples = map[string]summary{"setup_s": summarize(s.setup), "wall_s": summarize(s.wall), "cpu_s": summarize(s.cpu)}
		rec.Metrics = map[string]metric{}
		for name, sum := range rec.Samples {
			rec.Metrics[name] = metric{sum.Median, "s"}
		}
	}
	rec.CalibMs[1] = calibrate()
	if lo, hi := rec.CalibMs[0], rec.CalibMs[1]; hi > 1.15*lo || lo > 1.15*hi {
		rec.Noisy = true
	}
	rec.PeakRSSMB = float64(rusage().Maxrss) / 1024
	if traced {
		b.set("host.calib_ms", rec.CalibMs[0], "ms")
		b.set("host.peak_rss_mb", rec.PeakRSSMB, "MB")
		b.set("host.nproc", float64(b.nproc), "count")
		b.set("trace.spans", float64(len(b.tr.spans)), "count")
	}
	rec.Attempted, rec.Failed, rec.Failures = b.attempted, b.failed, b.failures
	rec.Correct = b.failed == 0
	return rec, b.tr, nil
}

// print writes a run as `workload name value unit` lines, one per metric.
func (r record) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %s %s", r.Workload, name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		if s, ok := r.Samples[name]; ok {
			fmt.Printf("  q1=%.4g q3=%.4g n=%d", s.Q1, s.Q3, s.N)
			if s.TailPct > 0 {
				fmt.Printf(" p%.4g=%.4g", s.TailPct, s.Tail)
			}
		}
		fmt.Println()
	}
	for _, f := range r.Failures {
		fmt.Printf("%s FAILED %s\n", r.Workload, f)
	}
	if r.Trace == 0 {
		fmt.Printf("%s peak_rss %.0f MB\n", r.Workload, r.PeakRSSMB)
	}
	if r.Noisy {
		fmt.Printf("%s noisy: calibration loop took %.1f ms before and %.1f ms after\n", r.Workload, r.CalibMs[0], r.CalibMs[1])
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// scoreboard runs every workload in a child process of its own, so that
// heap and collector state do not leak between workloads and peak memory
// is per workload, then the traced run; with runs > 1 it repeats on
// consecutive seeds and prints each end-to-end metric's spread.
func scoreboard(seed int64, seconds float64, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(workload string, seed int64, trace int) (record, error) {
		var rec record
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		// The child's report lines pass through; its last line is the
		// machine-readable one and result.json has the full record.
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		var last string
		for sc.Scan() {
			if last != "" {
				fmt.Println(last)
			}
			last = sc.Text()
		}
		if err != nil {
			return rec, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
		}
		var recs []record
		data, err := os.ReadFile(filepath.Join(outDir, "result.json"))
		if err == nil {
			err = json.Unmarshal(data, &recs)
		}
		if err != nil || len(recs) != 1 {
			return rec, fmt.Errorf("%s (trace %d): reading result.json: %v", workload, trace, err)
		}
		return recs[0], nil
	}

	var all []record
	values := map[string][]float64{} // "workload metric" -> one value per run
	var firstErr error
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			rec, err := child(w, seed+int64(r), 0)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			all = append(all, rec)
			for name, m := range rec.Metrics {
				values[w+" "+name] = append(values[w+" "+name], m.Value)
			}
		}
	}
	rec, err := child("traced", seed, 1)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	all = append(all, rec)
	if runs > 1 {
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := summarize(values[k])
			fmt.Printf("%s over %d runs: median=%.5g q1=%.5g q3=%.5g spread=%.2f%%\n", k, s.N, s.Median, s.Q1, s.Q3, 100*s.spread())
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), all); err != nil {
		return err
	}
	return firstErr
}

func main() {
	workload := flag.String("workload", "", "one of report-cold, report-warm, trace-sweep, serve-mix; empty runs all of them and the traced run, each in a child process")
	seed := flag.Int64("seed", 1, "seed of the serve-mix request sequence and of the sampled reuse-distance pass")
	seconds := flag.Float64("seconds", 15, "how long one workload measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics in place of the end-to-end ones")
	runs := flag.Int("runs", 1, "with no -workload: repeat on consecutive seeds and print each metric's spread")
	flag.Parse()

	if *workload == "" {
		if err := scoreboard(*seed, *seconds, *runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rec, tr, err := run(full, *workload, *seed, *seconds, *trace == 1)
	if err == nil {
		err = writeJSON(filepath.Join(outDir, "result.json"), []record{rec})
	}
	if err == nil && tr != nil {
		err = tr.write(filepath.Join(outDir, "trace.json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rec.print()
	last, err := json.Marshal(rec.line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !rec.Correct {
		os.Exit(1)
	}
}
