package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"splash2/internal/mach"
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
