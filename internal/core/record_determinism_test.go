package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"splash2/internal/mach"
	"splash2/internal/memsys"
)

// recordBytes records one app and serializes the trace.
func recordBytes(t *testing.T, app string, procs int, over map[string]int) []byte {
	t.Helper()
	tr, _, err := RecordApp(app, procs, over)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// underGOMAXPROCS runs f twice at GOMAXPROCS=1 and twice at GOMAXPROCS=2,
// returning the four results in that order.
func underGOMAXPROCS[T any](f func() T) []T {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out []T
	for _, n := range []int{1, 1, 2, 2} {
		runtime.GOMAXPROCS(n)
		out = append(out, f())
	}
	return out
}

// Recording is byte-deterministic for every program: processors execute
// one at a time in logical-time order, so every lock grant, steal and
// flag observation — and with them the synchronization epochs the
// recorder merges its per-processor sub-streams by — is the same on
// every run, and the serialized trace is identical across repeated runs
// and GOMAXPROCS settings.
func TestRecordingDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const procs = 8
	for _, app := range Suite {
		t.Run(app, func(t *testing.T) {
			traces := underGOMAXPROCS(func() []byte {
				return recordBytes(t, app, procs, SweepScale.Overrides(app))
			})
			if len(traces[0]) == 0 {
				t.Fatal("empty serialized trace")
			}
			for i, tr := range traces[1:] {
				if !bytes.Equal(tr, traces[0]) {
					t.Fatalf("recording %d (%d bytes) differs from the first at GOMAXPROCS=1 (%d bytes)",
						i+2, len(tr), len(traces[0]))
				}
			}
		})
	}
}

// TestExecutionDeterministic: a full-memory run's every measurement —
// per-processor counters including SyncWait, PRAM time, and all memory
// statistics including the hotspot peaks — is a function of the program,
// its input and the machine, not of the host scheduler. PRAM timing does
// not depend on the memory model either: a count-only run has the same
// counters and time.
func TestExecutionDeterministic(t *testing.T) {
	for _, app := range Suite {
		for _, procs := range []int{2, 8, 32} {
			t.Run(fmt.Sprintf("%s/P=%d", app, procs), func(t *testing.T) {
				runs := underGOMAXPROCS(func() mach.Stats {
					r, err := Run(app, mach.Config{Procs: procs}, SweepScale.Overrides(app))
					if err != nil {
						t.Fatal(err)
					}
					return r.Stats
				})
				for i, st := range runs[1:] {
					if !reflect.DeepEqual(st, runs[0]) {
						t.Fatalf("run %d differs from the first at GOMAXPROCS=1\n got %v\nwant %v", i+2, st, runs[0])
					}
				}
				r, err := Run(app, mach.Config{Procs: procs, MemModel: mach.CountOnly}, SweepScale.Overrides(app))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r.Stats.Procs, runs[0].Procs) || r.Stats.Time != runs[0].Time {
					t.Fatalf("count-only run differs from the full-memory runs\n got %v\nwant %v", r.Stats, runs[0])
				}
			})
		}
	}
}

// TestTappedExecutionMatchesSeparateRuns: one execution feeding several
// memory systems and the recorder measures exactly what the separate
// runs it replaces measure. PRAM timing keeps the execution path
// independent of what is attached (§2.2), so the counters and time equal
// the count-only run's, each tap's statistics (hotspot peaks included)
// equal a standalone full-memory run's, and the trace serializes to the
// bytes RecordApp's does — the recorder merges by (epoch, processor,
// index), so the extra quantum flushes of a machine with taps move no
// event.
func TestTappedExecutionMatchesSeparateRuns(t *testing.T) {
	small := map[string]bool{"fft": true, "ocean": true, "radix": true, "raytrace": true}
	v2 := func(tr *memsys.Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.WriteV2(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, app := range Suite {
		for _, procs := range []int{1, 8, 32} {
			t.Run(fmt.Sprintf("%s/P=%d", app, procs), func(t *testing.T) {
				over := SweepScale.Overrides(app)
				taps := []memsys.Config{{Procs: procs, CacheSize: 1 << 20, Assoc: 4, LineSize: 64}}
				if small[app] {
					taps = append(taps, memsys.Config{Procs: procs, CacheSize: 64 << 10, Assoc: 4, LineSize: 64})
				}
				record := procs == 32
				x, _, err := execute(app, mach.Config{Procs: procs, MemModel: mach.CountOnly}, over, taps, record)
				if err != nil {
					t.Fatal(err)
				}
				count, err := Run(app, mach.Config{Procs: procs, MemModel: mach.CountOnly}, over)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(x.Stats, count.Stats) {
					t.Fatalf("tapped counters differ from the count-only run\n got %v\nwant %v", x.Stats, count.Stats)
				}
				for i, mc := range taps {
					full, err := Run(app, mach.Config{Procs: procs, CacheSize: mc.CacheSize, Assoc: mc.Assoc, LineSize: mc.LineSize}, over)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(x.Taps[i], full.Stats.Mem) {
						t.Errorf("%dK tap differs from the standalone full-memory run\n got %+v\nwant %+v", mc.CacheSize/1024, x.Taps[i], full.Stats.Mem)
					}
				}
				if !record {
					return
				}
				tr, st, err := RecordApp(app, procs, over)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(x.Stats, st) {
					t.Errorf("tapped counters differ from the recording run's")
				}
				tapped := x.trace.Load()
				if !reflect.DeepEqual(tapped.Meta(), tr.Meta()) {
					t.Errorf("tapped trace summary differs from RecordApp's\n got %+v\nwant %+v", tapped.Meta(), tr.Meta())
				}
				if !bytes.Equal(v2(tapped), v2(tr)) {
					t.Errorf("tapped trace differs from RecordApp's")
				}
			})
		}
	}
}
