package water

import (
	"math"
	"testing"

	"splash2/internal/apps"
	"splash2/internal/mach"
)

func machine(procs int) *mach.Machine {
	return mach.MustNew(mach.Config{Procs: procs, CacheSize: 64 << 10, Assoc: 4, LineSize: 64})
}

func TestNsqRunsAndVerifies(t *testing.T) {
	m := machine(4)
	w, err := NewNsq(m, 64, 2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(m)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSpatialRunsAndVerifies(t *testing.T) {
	m := machine(4)
	w, err := NewSpatial(m, 216, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(m)
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleProcessorBoth(t *testing.T) {
	for _, name := range []string{"water-nsq", "water-sp"} {
		a, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !a.FlopBased {
			t.Errorf("%s should be flop-based", name)
		}
		m := machine(1)
		opts := map[string]int{"n": 64, "steps": 2}
		if name == "water-sp" {
			opts["n"] = 125 // box 5 ⇒ 3 cells per side
		}
		r, err := a.Build(m, a.Options(opts))
		if err != nil {
			t.Fatal(err)
		}
		r.Run(m)
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The two algorithms compute the same physics: after one step from the
// same lattice, per-molecule accelerations must agree (up to accumulation
// rounding).
func TestNsqAndSpatialAgree(t *testing.T) {
	const n = 125
	mn := machine(2)
	wn, err := NewNsq(mn, n, 1, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	wn.Run(mn)

	ms := machine(2)
	ws, err := NewSpatial(ms, n, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ws.Run(ms)

	an := wn.Accelerations()
	as := ws.Accelerations()
	var scale float64
	for _, v := range an {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		t.Fatal("nsq computed zero forces everywhere")
	}
	for i := range an {
		if d := math.Abs(an[i] - as[i]); d > 1e-9*scale {
			t.Fatalf("acc[%d]: nsq %g vs spatial %g", i, an[i], as[i])
		}
	}
}

func TestNsqPairCoverage(t *testing.T) {
	// The half-shell enumeration must cover each unordered pair exactly
	// once for even and odd n.
	for _, n := range []int{8, 9} {
		count := map[[2]int]int{}
		half := n / 2
		for i := 0; i < n; i++ {
			for d := 1; d <= half; d++ {
				if d == half && n%2 == 0 && i >= half {
					continue
				}
				j := (i + d) % n
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				count[[2]int{a, b}]++
			}
		}
		want := n * (n - 1) / 2
		if len(count) != want {
			t.Fatalf("n=%d: covered %d pairs, want %d", n, len(count), want)
		}
		for pr, c := range count {
			if c != 1 {
				t.Fatalf("n=%d: pair %v counted %d times", n, pr, c)
			}
		}
	}
}

func TestSpatialRejectsTinyBox(t *testing.T) {
	m := machine(1)
	if _, err := NewSpatial(m, 27, 1, 1); err == nil {
		t.Fatal("box of 3 units (2 cells) accepted") // cbrt(27)=3 → 2 cells
	}
}

func TestLJPairProperties(t *testing.T) {
	// Beyond the cutoff: exactly zero.
	if f, u := ljPair(cutoff * cutoff * 1.01); f != 0 || u != 0 {
		t.Fatal("interaction beyond cutoff")
	}
	// At very short range the force is repulsive (positive fscale pushes
	// molecules apart along d⃗ = xi − xj).
	if f, _ := ljPair(0.25 * ljSigma * ljSigma); f <= 0 {
		t.Fatalf("short-range force not repulsive: %g", f)
	}
	// Near 1.5σ the force is attractive.
	if f, _ := ljPair(2.25 * ljSigma * ljSigma); f >= 0 {
		t.Fatalf("mid-range force not attractive: %g", f)
	}
}

func TestMinImageAndWrap(t *testing.T) {
	s := &state{box: 10}
	if d := s.minImage(7); d != -3 {
		t.Fatalf("minImage(7) = %v", d)
	}
	if d := s.minImage(-7); d != 3 {
		t.Fatalf("minImage(-7) = %v", d)
	}
	if x := s.wrap(12); x != 2 {
		t.Fatalf("wrap(12) = %v", x)
	}
	if x := s.wrap(-1); x != 9 {
		t.Fatalf("wrap(-1) = %v", x)
	}
}

func TestSpatialCellLocksGenerateCommunication(t *testing.T) {
	m := machine(4)
	w, err := NewSpatial(m, 216, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(m)
	st := m.Snapshot()
	if mach.Aggregate(st.Procs).Locks == 0 {
		t.Fatal("no lock operations recorded")
	}
	if st.Mem.Traffic.TrueSharingData == 0 {
		t.Fatal("no communication detected")
	}
}

// §3: the improved locking strategy (private accumulation, one fold at
// the end) acquires far fewer locks, writes the shared accelerations far
// less often and generates less true-sharing traffic than SPLASH-1-style
// per-pair locking. Per-pair locking makes six shared writes per
// interacting pair, and the fold makes three per (processor, molecule it
// touched).
func TestLockingStrategyAblation(t *testing.T) {
	run := func(oldLock bool) (locks, sharedWrites, sharing uint64) {
		m := mach.MustNew(mach.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64})
		w, err := NewNsq(m, 125, 1, oldLock, 9)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(m)
		if err := w.Verify(); err != nil {
			t.Fatal(err)
		}
		st := m.Snapshot()
		agg := mach.Aggregate(st.Procs)
		return agg.Locks, agg.SharedWrites, st.Mem.Traffic.TrueSharingData
	}
	newLocks, newWrites, newSharing := run(false)
	oldLocks, oldWrites, oldSharing := run(true)
	if oldLocks <= newLocks {
		t.Fatalf("old strategy acquired fewer locks: %d <= %d", oldLocks, newLocks)
	}
	if oldWrites <= newWrites {
		t.Fatalf("old strategy wrote shared data less often: %d <= %d", oldWrites, newWrites)
	}
	if oldSharing <= newSharing {
		t.Fatalf("old strategy shared less data: %d <= %d", oldSharing, newSharing)
	}
}
