package ocean

import (
	"math"
	"testing"

	"splash2/internal/apps"
	"splash2/internal/mach"
)

func machine(procs int) *mach.Machine {
	return mach.MustNew(mach.Config{Procs: procs, CacheSize: 64 << 10, Assoc: 4, LineSize: 64})
}

func TestGridPartition(t *testing.T) {
	m := machine(4)
	g, err := NewGrid(m, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// All four blocks together must cover the interior exactly once.
	covered := map[[2]int]int{}
	for pid := 0; pid < 4; pid++ {
		i0, i1, j0, j1 := g.Block(pid)
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				covered[[2]int{i, j}]++
			}
		}
	}
	if len(covered) != 16*16 {
		t.Fatalf("covered %d interior cells, want 256", len(covered))
	}
	for c, n := range covered {
		if n != 1 {
			t.Fatalf("cell %v covered %d times", c, n)
		}
	}
}

func TestGridRoundTrip(t *testing.T) {
	m := machine(4)
	g, err := NewGrid(m, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 9; i++ {
		for j := 0; j <= 9; j++ {
			g.Init(i, j, float64(i*100+j))
		}
	}
	for i := 0; i <= 9; i++ {
		for j := 0; j <= 9; j++ {
			if g.Peek(i, j) != float64(i*100+j) {
				t.Fatalf("cell (%d,%d) = %v", i, j, g.Peek(i, j))
			}
		}
	}
}

func TestGridRejectsBadPartition(t *testing.T) {
	m := machine(4)
	if _, err := NewGrid(m, 15, 2, 2); err == nil {
		t.Fatal("accepted non-divisible grid")
	}
}

func TestMultigridSolvesPoisson(t *testing.T) {
	m := machine(4)
	o, err := New(m, 32, 1, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	o.Run(m)
	if err := o.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestKnownSolution(t *testing.T) {
	// Solve ∇²u = rhs with rhs derived from u* = sin(πx)sin(πy):
	// ∇²u* = −2π² sin(πx) sin(πy). The solver should approach u*.
	m := machine(1)
	o, err := New(m, 32, 1, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 32
	for i := 0; i <= n+1; i++ {
		for j := 0; j <= n+1; j++ {
			x, y := float64(i)*o.h, float64(j)*o.h
			o.vort.Init(i, j, -2*math.Pi*math.Pi*math.Sin(math.Pi*x)*math.Sin(math.Pi*y))
		}
	}
	m.Run(func(p *mach.Proc) {
		i0, i1, j0, j1 := o.psi.Block(p.ID)
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				o.mgRHS[0].Set(p, i, j, o.vort.Get(p, i, j))
				o.mgU[0].Set(p, i, j, 0)
			}
		}
		o.barrier.Wait(p)
		o.solve(p)
	})
	var worst float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			x, y := float64(i)*o.h, float64(j)*o.h
			want := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			if d := math.Abs(o.mgU[0].Peek(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	// Discretization error of the 5-point stencil at h=1/33 is ~1e-3.
	if worst > 5e-3 {
		t.Fatalf("solution error %g too large", worst)
	}
}

func TestDeterministicAcrossProcCounts(t *testing.T) {
	var ref []float64
	for _, procs := range []int{1, 4} {
		m := machine(procs)
		o, err := New(m, 16, 2, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		o.Run(m)
		flat := make([]float64, 0, 18*18)
		for i := 0; i <= 17; i++ {
			for j := 0; j <= 17; j++ {
				flat = append(flat, o.psi.Peek(i, j))
			}
		}
		if ref == nil {
			ref = flat
			continue
		}
		for k := range ref {
			if math.Abs(ref[k]-flat[k]) > 1e-12 {
				t.Fatalf("ψ differs across processor counts at %d: %g vs %g", k, ref[k], flat[k])
			}
		}
	}
}

func TestRegisteredAndEpochUsed(t *testing.T) {
	a, err := apps.Get("ocean")
	if err != nil {
		t.Fatal(err)
	}
	m := machine(2)
	r, err := a.Build(m, a.Options(map[string]int{"n": 16, "steps": 2, "vcycles": 2}))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(m)
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	ag := st.Mem.Aggregate()
	// Measurement restarted after the first step: cold misses should be a
	// small share (warm caches), but stencil communication persists.
	if ag.Refs() == 0 {
		t.Fatal("no post-epoch references")
	}
	if st.Mem.Traffic.TrueSharingData == 0 {
		t.Fatal("no boundary-exchange communication detected")
	}
}

func TestHierarchyDepth(t *testing.T) {
	m := machine(4)
	o, err := New(m, 32, 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	// 32 → 16 → 8 → 4 with a 2×2 processor grid.
	if len(o.mgN) != 4 {
		t.Fatalf("levels %v", o.mgN)
	}
}

func TestColumnPartitionAblation(t *testing.T) {
	// §3: square-like subgrids improve the communication-to-computation
	// ratio over column strips (perimeter 2√(A/P)·2 vs full columns).
	comm := func(columns bool) uint64 {
		// P=8 keeps the coarse multigrid levels partitionable under both
		// decompositions (column strips need n divisible by P at every level).
		m := mach.MustNew(mach.Config{Procs: 8, CacheSize: 1 << 20, Assoc: 4, LineSize: 64})
		o, err := New(m, 32, 1, 6, columns)
		if err != nil {
			t.Fatal(err)
		}
		o.Run(m)
		if err := o.Verify(); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot().Mem.Traffic.TrueSharingData
	}
	square := comm(false)
	columns := comm(true)
	if square == 0 || columns == 0 {
		t.Fatalf("no communication measured: square=%d columns=%d", square, columns)
	}
	if columns <= square {
		t.Fatalf("column strips communicate less than square subgrids: %d <= %d", columns, square)
	}
}

// linearBand is the reference band search: the band whose start ≤ x <
// its successor's start, -1 when x is outside 0..n+1.
func linearBand(starts []int, x int) int {
	for b := 0; b+1 < len(starts); b++ {
		if starts[b] <= x && x < starts[b+1] {
			return b
		}
	}
	return -1
}

// TestGridLocateMatchesLinearSearch checks locate's O(1) band arithmetic
// against a linear search at every index of several grids, boundary rows
// and columns included, and that an index outside the grid panics.
func TestGridLocateMatchesLinearSearch(t *testing.T) {
	m := machine(4)
	for _, dims := range [][3]int{{8, 2, 2}, {16, 4, 2}, {12, 3, 4}, {8, 1, 8}, {16, 1, 1}, {30, 5, 3}} {
		n, pr, pc := dims[0], dims[1], dims[2]
		g, err := NewGrid(m, n, pr, pc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= n+1; i++ {
			for j := 0; j <= n+1; j++ {
				bi, bj := linearBand(g.rowStart, i), linearBand(g.colStart, j)
				wantOff := (i-g.rowStart[bi])*g.widths[bj] + j - g.colStart[bj]
				sub, off := g.locate(i, j)
				if sub != g.subs[bi*pc+bj] || off != wantOff {
					t.Fatalf("n=%d %d×%d: locate(%d,%d) = (subgrid %p, %d), want subgrid (%d,%d) at %d", n, pr, pc, i, j, sub, off, bi, bj, wantOff)
				}
			}
		}
		for _, ij := range [][2]int{{-1, 0}, {n + 2, 0}, {0, -1}, {0, n + 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d %d×%d: locate(%d,%d) outside the grid did not panic", n, pr, pc, ij[0], ij[1])
					}
				}()
				g.locate(ij[0], ij[1])
			}()
		}
	}
}
