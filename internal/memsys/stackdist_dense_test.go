package memsys

import (
	"fmt"
	"math/rand"
	"testing"
)

// sdEvent is one synthetic access for the dense-capacity equivalence
// test; reset marks an epoch boundary (measurement reset).
type sdEvent struct {
	p     int
	line  int
	write bool
	reset bool
}

func sdBuild(evs []sdEvent) *Trace {
	var events []uint64
	for _, e := range evs {
		if e.reset {
			events = append(events, resetMarker)
			continue
		}
		events = append(events, traceEvent(e.p, Addr(e.line*64), e.write))
	}
	return flatTrace(events, make([]int32, 64))
}

// sdCheck compares StackDistances against fully-associative Replay at
// EVERY capacity from 1 to maxLines lines, per processor. It returns a
// description of the first disagreement, or "" when all agree.
func sdCheck(t *testing.T, evs []sdEvent, maxLines int) string {
	t.Helper()
	tr := sdBuild(evs)
	sp, err := StackDistances(tr, 64, maxLines*64)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= maxLines; c++ {
		st, err := Replay(tr, Config{Procs: 8, CacheSize: c * 64, Assoc: FullyAssoc, LineSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < sp.Procs(); p++ {
			got, err := sp.ProcMisses(p, c*64)
			if err != nil {
				t.Fatal(err)
			}
			if want := st.Procs[p].TotalMisses(); got != want {
				return fmt.Sprintf("cap=%d proc=%d: stackdist %d replay %d", c, p, got, want)
			}
		}
	}
	return ""
}

// TestStackDistanceDenseCapacities drives random multi-processor streams
// — writes (invalidations), epoch resets, heavy line reuse — through the
// stack-distance pass and checks exact per-processor miss counts against
// Replay at every capacity the profile can answer, not just the sparse
// power-of-two sweep points the app-trace tests use. On failure the
// trace is greedily shrunk to a minimal reproducer before reporting.
func TestStackDistanceDenseCapacities(t *testing.T) {
	const maxLines = 40
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nproc := 2 + rng.Intn(7)
		nline := 6 + rng.Intn(25)
		n := 30 + rng.Intn(370)
		evs := make([]sdEvent, n)
		for i := range evs {
			evs[i] = sdEvent{
				p:     rng.Intn(nproc),
				line:  rng.Intn(nline),
				write: rng.Intn(3) == 0,
				reset: rng.Intn(40) == 0,
			}
		}
		if msg := sdCheck(t, evs, maxLines); msg != "" {
			// Greedy shrink: drop events while the failure persists.
			for again := true; again; {
				again = false
				for i := 0; i < len(evs); i++ {
					cand := append(append([]sdEvent(nil), evs[:i]...), evs[i+1:]...)
					if sdCheck(t, cand, maxLines) != "" {
						evs = cand
						again = true
						break
					}
				}
			}
			msg = sdCheck(t, evs, maxLines)
			t.Logf("seed=%d shrunk to %d events: %s", seed, len(evs), msg)
			for _, e := range evs {
				t.Logf("  %+v", e)
			}
			t.Fatal("dense capacity mismatch")
		}
	}
}
