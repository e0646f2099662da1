package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"splash2/internal/mach"
	"splash2/internal/memsys"
)

// recordBytes records one app and returns the recording's v2 bytes.
func recordBytes(t *testing.T, app string, procs int, over map[string]int) []byte {
	t.Helper()
	tr, _, err := RecordApp(app, procs, over)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordingV2Golden pins every program's recording, byte for byte,
// across commits: the SHA-256 of its v2 container at sweep scale and
// P=8. A change to capture, the recorder's merge order or the block
// encoding moves a digest; such a change must say why and re-pin.
func TestRecordingV2Golden(t *testing.T) {
	golden := map[string]string{
		"barnes":    "d3cc5ccfcd618158320fa7b03d85d00b462c9ac403c6aaf364ee7283ccedfc0f",
		"cholesky":  "51797a9a8dca253ce4f86b948acde6a97f80bef2e19c198a1f2a26180f248fdb",
		"fft":       "56d662db26dac2dab8f66815e888fc3b805334743496d8106601d4b37fde7cf4",
		"fmm":       "90911109722c5e58344e829937887b5be2a226742f6823a9e3d05085da723e1b",
		"lu":        "946e1e3a16e709cdc7852f0cb17c02397f534907ae0fc84755830cd6343ad195",
		"ocean":     "f2057df9e40b26a9c84ed6ea84539ac7dbf49406c4aa21d0f5b4cad4f3532658",
		"radiosity": "6f99e70878f6742e9b80fc09d441cf1b714cf63aac1f915b5c91a872d6aa142d",
		"radix":     "a928706e647798470b8c0e26ee7c810691b4ffb587036d57fb82d55bad6147bc",
		"raytrace":  "3a2c6a670ad37fe7e7ccd2acdc8375ddaaae648533cc48b6dc23e8a7aaf7d91a",
		"volrend":   "de543e8b6e870e3b3830fd989a6e244f2a35c85afa6b9c6994acbe5c20febca7",
		"water-nsq": "e740a4af0e5cc0476a80d113a5785b84754b65283d3b66728d2c0209e1493219",
		"water-sp":  "da5f0583a69ca1f000d87f4c1dc62bc59d5c9af7328d178b620f8fbe8b40722b",
	}
	if len(golden) != len(Suite) {
		t.Fatalf("%d golden digests for %d programs", len(golden), len(Suite))
	}
	for _, app := range Suite {
		t.Run(app, func(t *testing.T) {
			sum := sha256.Sum256(recordBytes(t, app, 8, SweepScale.Overrides(app)))
			if got := hex.EncodeToString(sum[:]); got != golden[app] {
				t.Fatalf("recording's v2 container has SHA-256 %s, pinned %s", got, golden[app])
			}
		})
	}
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
				tapped := x.trace
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
