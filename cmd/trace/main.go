// Command trace records a SPLASH-2 program's global reference stream to a
// file, replays stored traces through arbitrary cache configurations —
// the execution-driven methodology (reference generator feeding a memory
// system simulator) as a standalone workflow — and inspects or converts
// the stored containers.
//
// Usage:
//
//	trace record -app fft -p 32 -o fft.sp2t [-opt n=4096]
//	trace record -app fft -p 32 -o fft.trace -format v1
//	trace replay -i fft.sp2t -cache 65536 -assoc 2 -line 64
//	trace replay -i fft.sp2t -sweep          # full Figure-3 cache sweep
//	trace replay -i fft.sp2t -window 1:2     # epochs 1-2 only; other blocks never decoded
//	trace info -i fft.sp2t                   # counts, bytes/reference, block shape
//	trace convert -i fft.trace -o fft.sp2t   # v1 → v2 (and -to v1 for the reverse)
//	trace verify -i fft.sp2t                 # decode every block, check the sidecar hash
//	trace verify -dir ~/.cache/splash2/traces  # audit a whole spill directory
//
// Traces come in two formats: the flat v1 stream (one packed word per
// event) and the columnar v2 container (delta-compressed per-processor
// blocks plus an index footer; see internal/README.md). record writes
// v2 by default. replay sniffs the format: a v2 container streams from
// disk block by block without ever materializing the event array, and a
// v1 file is encoded into a v2 container in memory. -window selects the synchronization
// epochs stamped on v2 blocks, so it needs a v2 container.
//
// Replay can inject deterministic read faults to drill the decoder's
// failure handling (a truncated stream fails with a descriptive error,
// never a panic):
//
//	trace replay -i fft.trace -fault 'shortread(100)=trace.read'
//	trace replay -i fft.sp2t -fault 'error@3=trace.read.block:*'
//
// Exit status: 0 — clean completion; 1 — usage error; 3 — runtime
// error (unreadable input, corrupt container, failed simulation).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"splash2"
	"splash2/internal/cli"
	"splash2/internal/memsys"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return cli.ExitUsage
	}
	switch args[0] {
	case "record":
		return record(args[1:], stdout, stderr)
	case "replay":
		return replay(args[1:], stdout, stderr)
	case "info":
		return info(args[1:], stdout, stderr)
	case "convert":
		return convert(args[1:], stdout, stderr)
	case "verify":
		return verify(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return cli.ExitUsage
	}
}

func usage(stderr io.Writer) {
	fmt.Fprintln(stderr, "usage: trace record|replay|info|convert|verify [flags]")
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "trace:", err)
	return cli.ExitRuntime
}

type optFlags map[string]int

func (o optFlags) String() string { return fmt.Sprint(map[string]int(o)) }

func (o optFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return err
	}
	o[k] = n
	return nil
}

// writeTrace serializes tr to path in the requested format, returning
// the byte count.
func writeTrace(tr *splash2.Trace, path, format string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	var n int64
	switch format {
	case "v1":
		n, err = tr.WriteTo(f)
	case "v2":
		n, err = tr.WriteV2(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func record(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "program to record")
	procs := fs.Int("p", 32, "processors")
	out := fs.String("o", "", "output trace file")
	format := fs.String("format", "v2", `container format: "v2" (columnar blocks) or "v1" (flat stream)`)
	opts := optFlags{}
	fs.Var(opts, "opt", "program option override key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *app == "" || *out == "" {
		fmt.Fprintln(stderr, "trace record: -app and -o required")
		return cli.ExitUsage
	}
	if *format != "v1" && *format != "v2" {
		fmt.Fprintf(stderr, "trace record: unknown -format %q (want v1 or v2)\n", *format)
		return cli.ExitUsage
	}

	tr, st, err := splash2.RecordTrace(*app, *procs, opts)
	if err != nil {
		return fail(stderr, err)
	}
	n, err := writeTrace(tr, *out, *format)
	if err != nil {
		return fail(stderr, err)
	}
	a := splash2.AggregateCounters(st.Procs)
	fmt.Fprintf(stdout, "recorded %s: %d references (%d instructions) → %s (%d bytes, %s)\n",
		*app, tr.Len(), a.Instr, *out, n, *format)
	return cli.ExitOK
}

// readTrace reads a whole trace file, either format, into an in-memory
// v2 container.
func readTrace(path string, inj *splash2.FaultInjector) (*splash2.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := inj.Do(nil, "trace.read"); err != nil {
		return nil, err
	}
	return memsys.ReadTrace(inj.Reader("trace.read", f))
}

func replay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input trace file")
	cache := fs.Int("cache", 1<<20, "cache size in bytes")
	assoc := fs.Int("assoc", 4, "associativity (0 = fully associative)")
	line := fs.Int("line", 64, "line size in bytes")
	procs := fs.Int("p", 0, "replay processors (default: trace's max + 1)")
	sweep := fs.Bool("sweep", false, "replay the full 1K-1M cache-size sweep")
	window := fs.String("window", "", `replay only epochs [start, start+len) as "start:len" (v2 only; other blocks are never decoded)`)
	faultSpec := fs.String("fault", "", `inject read faults: "action[(arg)][@nth]=trace.read;..."`)
	faultSeed := fs.Int64("fault-seed", 1, "seed choosing the occurrence of @-nth fault rules")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *in == "" {
		fmt.Fprintln(stderr, "trace replay: -i required")
		return cli.ExitUsage
	}
	var inj *splash2.FaultInjector
	if *faultSpec != "" {
		rules, err := splash2.ParseFaultRules(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, "trace replay:", err)
			return cli.ExitUsage
		}
		inj = splash2.NewFaultInjector(*faultSeed, rules...)
	}

	var lo, n uint64
	if *window != "" {
		var err error
		if lo, n, err = parseWindow(*window); err != nil {
			fmt.Fprintln(stderr, "trace replay:", err)
			return cli.ExitUsage
		}
	}
	format, err := sniffFormat(*in)
	if err != nil {
		return fail(stderr, err)
	}
	// A v2 container streams from disk through its index; a v1 file is
	// encoded into memory.
	var src splash2.TraceSource
	if format == "v2" {
		tf, err := memsys.OpenTraceFile(*in, inj)
		if err != nil {
			return fail(stderr, err)
		}
		defer tf.Close()
		src = tf
		if *window != "" {
			if src, err = memsys.EpochWindow(tf, lo, lo+n-1); err != nil {
				return fail(stderr, err)
			}
		}
	} else {
		if *window != "" {
			fmt.Fprintf(stderr, "trace replay: -window selects the epochs stamped on v2 blocks, and %s is flat v1; convert it first (trace convert -i %s -o <out>.sp2t)\n", *in, *in)
			return cli.ExitUsage
		}
		if src, err = readTrace(*in, inj); err != nil {
			return fail(stderr, err)
		}
	}
	meta := src.Meta()
	p := *procs
	if p == 0 {
		p = meta.MinProcs // every referencing proc and every home node
	}

	if *sweep {
		if p < meta.MinProcs {
			return fail(stderr, fmt.Errorf("trace needs ≥ %d processors, replay machine has %d", meta.MinProcs, p))
		}
		rate, err := sweepRates(src, *assoc, *line)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "%-10s %-10s\n", "cache", "miss rate")
		for _, cs := range splash2.DefaultCacheSizes() {
			mr, err := rate(cs)
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "%-10s %.3f%%\n", fmt.Sprintf("%dK", cs/1024), 100*mr)
		}
		return cli.ExitOK
	}

	st, err := splash2.ReplayTrace(src, splash2.MemConfig{Procs: p, CacheSize: *cache, Assoc: *assoc, LineSize: *line})
	if err != nil {
		return fail(stderr, err)
	}
	agg := st.Aggregate()
	fmt.Fprintf(stdout, "replayed %d references on %d procs, %dB %d-way, %dB lines\n",
		agg.Refs(), p, *cache, *assoc, *line)
	fmt.Fprintf(stdout, "miss rate  %.3f%% (cold %d, capacity %d, true %d, false %d)\n",
		100*st.MissRate(),
		agg.Misses[memsys.MissCold], agg.Misses[memsys.MissCapacity],
		agg.Misses[memsys.MissTrue], agg.Misses[memsys.MissFalse])
	fmt.Fprintf(stdout, "traffic    local %d B, remote %d B (overhead %d B)\n",
		st.Traffic.LocalData, st.Traffic.Remote(), st.Traffic.RemoteOverhead)
	return cli.ExitOK
}

// sweepRates answers the whole Figure-3 cache-size sweep from one pass
// over the stream: the inclusion pass for set-associative caches, the
// stack-distance pass for fully associative ones (assoc 0). Each rate is
// bit-identical to replaying that cache size on its own.
func sweepRates(src splash2.TraceSource, assoc, line int) (func(cacheSize int) (float64, error), error) {
	sizes := splash2.DefaultCacheSizes()
	if assoc == memsys.FullyAssoc {
		sp, err := memsys.StackDistances(src, line, sizes[len(sizes)-1])
		if err != nil {
			return nil, err
		}
		return sp.MissRate, nil
	}
	sp, err := memsys.SetAssocSweep(src, line, assoc, sizes)
	if err != nil {
		return nil, err
	}
	return sp.MissRate, nil
}

// parseWindow parses the -window epoch range "start:len".
func parseWindow(s string) (start, n uint64, err error) {
	if _, err := fmt.Sscanf(s, "%d:%d", &start, &n); err != nil {
		return 0, 0, fmt.Errorf("-window %q: want \"start:len\" (two non-negative integers)", s)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("-window %q: length must be positive", s)
	}
	return start, n, nil
}

// sniffFormat reads the magic of a trace file: "v1", "v2", or an error.
func sniffFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var m [4]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return "", fmt.Errorf("%s: reading magic: %w", path, err)
	}
	switch binary.LittleEndian.Uint32(m[:]) {
	case memsys.TraceMagicV1:
		return "v1", nil
	case memsys.TraceMagicV2:
		return "v2", nil
	}
	return "", fmt.Errorf("%s: not a trace file (magic %x)", path, m)
}

func info(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input trace file")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *in == "" {
		fmt.Fprintln(stderr, "trace info: -i required")
		return cli.ExitUsage
	}
	format, err := sniffFormat(*in)
	if err != nil {
		return fail(stderr, err)
	}
	fi, err := os.Stat(*in)
	if err != nil {
		return fail(stderr, err)
	}

	var meta splash2.TraceMeta
	var index []memsys.BlockInfo
	epochs := uint64(0)
	switch format {
	case "v1":
		tr, err := readTrace(*in, nil)
		if err != nil {
			return fail(stderr, err)
		}
		meta = tr.Meta()
		// Flat streams carry no epoch numbers; markers delimit the eras.
		epochs = meta.Markers + 1
	case "v2":
		tf, err := splash2.OpenTraceFile(*in)
		if err != nil {
			return fail(stderr, err)
		}
		meta = tf.Meta()
		index = tf.Index()
		tf.Close()
		for _, b := range index {
			if b.Epoch+1 > epochs {
				epochs = b.Epoch + 1
			}
		}
	}

	fmt.Fprintf(stdout, "format          %s (%d bytes)\n", format, fi.Size())
	fmt.Fprintf(stdout, "events          %d (%d references + %d markers)\n",
		meta.Refs+meta.Markers, meta.Refs, meta.Markers)
	fmt.Fprintf(stdout, "processors      %d\n", meta.MaxProc+1)
	fmt.Fprintf(stdout, "epochs          %d\n", epochs)
	fmt.Fprintf(stdout, "max address     %#x\n", uint64(meta.MaxAddr))
	if meta.Refs > 0 {
		fmt.Fprintf(stdout, "bytes/reference %.3f\n", float64(fi.Size())/float64(meta.Refs))
	}
	for p, n := range meta.ProcRefs {
		fmt.Fprintf(stdout, "  proc %-3d      %d references\n", p, n)
	}
	if format != "v2" {
		return cli.ExitOK
	}

	// Block histogram: how full the columnar blocks run, and how small
	// the compressed events land.
	var fills, sizes []int
	markers := 0
	for _, b := range index {
		if b.Marker {
			markers++
			continue
		}
		fills = append(fills, b.Events)
		sizes = append(sizes, int(b.Size))
	}
	fmt.Fprintf(stdout, "blocks          %d (%d event blocks + %d marker blocks)\n",
		len(index), len(fills), markers)
	if len(fills) > 0 {
		sort.Ints(fills)
		sort.Ints(sizes)
		fmt.Fprintf(stdout, "  events/block  min %d, median %d, max %d\n",
			fills[0], fills[len(fills)/2], fills[len(fills)-1])
		fmt.Fprintf(stdout, "  bytes/block   min %d, median %d, max %d\n",
			sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1])
	}
	return cli.ExitOK
}

func convert(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input trace file (v1 or v2, sniffed)")
	out := fs.String("o", "", "output trace file")
	to := fs.String("to", "v2", `target format: "v2" (columnar blocks) or "v1" (flat stream)`)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(stderr, "trace convert: -i and -o required")
		return cli.ExitUsage
	}
	if *to != "v1" && *to != "v2" {
		fmt.Fprintf(stderr, "trace convert: unknown -to %q (want v1 or v2)\n", *to)
		return cli.ExitUsage
	}
	from, err := sniffFormat(*in)
	if err != nil {
		return fail(stderr, err)
	}

	tr, err := readTrace(*in, nil)
	if err != nil {
		return fail(stderr, err)
	}
	n, err := writeTrace(tr, *out, *to)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "converted %s (%s, %d events) → %s (%s, %d bytes)\n",
		*in, from, tr.Len(), *out, *to, n)
	return cli.ExitOK
}
