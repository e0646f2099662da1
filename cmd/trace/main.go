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
//	trace verify -i fft.sp2t                 # decode every block (and check an entry's sha256)
//	trace verify -dir ~/.cache/splash2/traces  # audit an engine's recordings
//
// Traces come in two formats: the flat v1 stream (one packed word per
// event) and the columnar v2 container (delta-compressed per-processor
// blocks plus an index footer; see internal/README.md). record writes
// v2 by default. replay sniffs the format: a v2 container streams from
// disk block by block without ever materializing the event array, and a
// v1 file is encoded into a v2 container in memory. -window selects the
// synchronization epochs stamped on v2 blocks, so it needs a v2
// container. A recording an engine stored under <cache-dir>/traces is a
// v2 container inside a checksummed entry; every subcommand reading a
// trace accepts one and verifies its SHA-256 first.
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
	"errors"
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
	"splash2/internal/runner"
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

// traceFile is a trace file opened for reading. payload is the
// container: the whole file, or the payload runner.OpenEntry verified of
// a recording an engine stored as an entry (<cache-dir>/traces/<key>.sp2t).
type traceFile struct {
	f       *os.File
	payload *io.SectionReader
	format  string // the container's: "v1" or "v2"
	entry   bool
}

// openTrace opens path and sniffs its container's format. A file without
// the entry magic is a bare container; a damaged entry is an error.
func openTrace(path string) (*traceFile, error) {
	t := &traceFile{entry: true}
	var err error
	if t.payload, t.f, err = runner.OpenEntry(path); errors.Is(err, runner.ErrNotEntry) {
		t.entry = false
		if t.f, err = os.Open(path); err == nil {
			size, _ := t.f.Seek(0, io.SeekEnd) // a failed seek reads as an empty file
			t.payload = io.NewSectionReader(t.f, 0, size)
		}
	}
	if err != nil {
		return nil, err
	}
	var m [4]byte
	if _, err := t.payload.ReadAt(m[:], 0); err != nil {
		t.f.Close()
		return nil, fmt.Errorf("%s: reading magic: %w", path, err)
	}
	switch binary.LittleEndian.Uint32(m[:]) {
	case memsys.TraceMagicV1:
		t.format = "v1"
	case memsys.TraceMagicV2:
		t.format = "v2"
	default:
		t.f.Close()
		return nil, fmt.Errorf("%s: not a trace file (magic %x)", path, m)
	}
	return t, nil
}

func (t *traceFile) Close() error { return t.f.Close() }

// decode reads the whole container, either format, into an in-memory
// trace.
func (t *traceFile) decode(inj *splash2.FaultInjector) (*splash2.Trace, error) {
	if err := inj.Do(nil, "trace.read"); err != nil {
		return nil, err
	}
	return memsys.ReadTrace(inj.Reader("trace.read", t.payload))
}

// stream opens a v2 container for out-of-core streaming; it reads
// through the file, so close t after the trace's last pass.
func (t *traceFile) stream(inj *splash2.FaultInjector) (*memsys.Trace, error) {
	if err := inj.Do(nil, "trace.read"); err != nil {
		return nil, err
	}
	return memsys.NewTraceFile(t.payload, t.payload.Size(), inj)
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
	t, err := openTrace(*in)
	if err != nil {
		return fail(stderr, err)
	}
	defer t.Close()
	// A v2 container streams from disk through its index; a v1 file is
	// encoded into memory.
	var src splash2.TraceSource
	if t.format == "v2" {
		tf, err := t.stream(inj)
		if err != nil {
			return fail(stderr, err)
		}
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
		if src, err = t.decode(inj); err != nil {
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
		rate, err := memsys.SweepMissRates(src, *line, *assoc, splash2.DefaultCacheSizes())
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
	t, err := openTrace(*in)
	if err != nil {
		return fail(stderr, err)
	}
	defer t.Close()

	var meta splash2.TraceMeta
	var index []memsys.BlockInfo
	epochs := uint64(0)
	switch t.format {
	case "v1":
		tr, err := t.decode(nil)
		if err != nil {
			return fail(stderr, err)
		}
		meta = tr.Meta()
		// Flat streams carry no epoch numbers; markers delimit the eras.
		epochs = meta.Markers + 1
	case "v2":
		tf, err := t.stream(nil)
		if err != nil {
			return fail(stderr, err)
		}
		meta = tf.Meta()
		index = tf.Index()
		for _, b := range index {
			if b.Epoch+1 > epochs {
				epochs = b.Epoch + 1
			}
		}
	}

	size := t.payload.Size()
	stored := ""
	if t.entry {
		stored = ", in an engine entry, sha256 verified"
	}
	fmt.Fprintf(stdout, "format          %s (%d bytes%s)\n", t.format, size, stored)
	fmt.Fprintf(stdout, "events          %d (%d references + %d markers)\n",
		meta.Refs+meta.Markers, meta.Refs, meta.Markers)
	fmt.Fprintf(stdout, "processors      %d\n", meta.MaxProc+1)
	fmt.Fprintf(stdout, "epochs          %d\n", epochs)
	fmt.Fprintf(stdout, "max address     %#x\n", uint64(meta.MaxAddr))
	if meta.Refs > 0 {
		fmt.Fprintf(stdout, "bytes/reference %.3f\n", float64(size)/float64(meta.Refs))
	}
	for p, n := range meta.ProcRefs {
		fmt.Fprintf(stdout, "  proc %-3d      %d references\n", p, n)
	}
	if t.format != "v2" {
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
	t, err := openTrace(*in)
	if err != nil {
		return fail(stderr, err)
	}
	tr, err := t.decode(nil)
	t.Close()
	if err != nil {
		return fail(stderr, err)
	}
	n, err := writeTrace(tr, *out, *to)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "converted %s (%s, %d events) → %s (%s, %d bytes)\n",
		*in, t.format, tr.Len(), *out, *to, n)
	return cli.ExitOK
}
