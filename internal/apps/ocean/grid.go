package ocean

import (
	"fmt"
	"math"

	"splash2/internal/mach"
)

// Grid is an (n+2)×(n+2) scalar field (n interior points plus boundary)
// partitioned into square-like subgrids, one per processor, with every
// subgrid allocated contiguously in its owner's local memory — the
// "conceptually 2-D, physically 4-D array" organization that distinguishes
// SPLASH-2 Ocean from its column-partitioned predecessor (§3).
type Grid struct {
	n      int // interior points per side
	pr, pc int
	// Partition: interior rows split into pr bands, columns into pc bands;
	// boundary rows/cols attach to the adjacent edge band.
	rowStart []int // global start row of each band (len pr+1, in 0..n+2)
	colStart []int
	rowBand  []int32          // band of each row 0..n+1
	colBand  []int32          // band of each column 0..n+1
	subs     []*mach.F64Array // pr*pc subgrids, row-major by (bi,bj)
	widths   []int            // columns per band
}

// NewGrid allocates the partitioned field. n must be divisible by both
// processor-grid dimensions.
func NewGrid(m *mach.Machine, n, pr, pc int) (*Grid, error) {
	if n%pr != 0 || n%pc != 0 {
		return nil, fmt.Errorf("ocean: grid n=%d not divisible by %d×%d processor grid", n, pr, pc)
	}
	g := &Grid{n: n, pr: pr, pc: pc}
	g.rowStart = bandStarts(n, pr)
	g.colStart = bandStarts(n, pc)
	g.rowBand = bandTable(n, pr)
	g.colBand = bandTable(n, pc)
	g.widths = make([]int, pc)
	for j := 0; j < pc; j++ {
		g.widths[j] = g.colStart[j+1] - g.colStart[j]
	}
	g.subs = make([]*mach.F64Array, pr*pc)
	for bi := 0; bi < pr; bi++ {
		rows := g.rowStart[bi+1] - g.rowStart[bi]
		for bj := 0; bj < pc; bj++ {
			owner := bi*pc + bj
			g.subs[bi*pc+bj] = m.NewF64(rows*g.widths[bj], true, mach.Owner(owner%m.Procs()))
		}
	}
	return g, nil
}

// bandStarts splits rows 0..n+1 into bands: band 0 starts at 0 (taking the
// low boundary row), the last band ends at n+2 (taking the high boundary).
func bandStarts(n, parts int) []int {
	s := make([]int, parts+1)
	per := n / parts
	s[0] = 0
	for k := 1; k < parts; k++ {
		s[k] = 1 + k*per
	}
	s[parts] = n + 2
	return s
}

func (g *Grid) locate(i, j int) (sub *mach.F64Array, off int) {
	if uint(i) >= uint(len(g.rowBand)) || uint(j) >= uint(len(g.colBand)) {
		panic(fmt.Sprintf("ocean: index (%d,%d) outside grid", i, j))
	}
	bi, bj := int(g.rowBand[i]), int(g.colBand[j])
	w := g.widths[bj]
	off = (i-g.rowStart[bi])*w + (j - g.colStart[bj])
	return g.subs[bi*g.pc+bj], off
}

// bandTable maps each index 0..n+1 to its band among the parts bands of
// bandStarts. Those bands are uniform apart from the boundary rows the
// edge bands take, so the band of x is one division; locate reads it
// from the table because a division on every access measured slower
// than a linear scan of the band starts.
func bandTable(n, parts int) []int32 {
	t := make([]int32, n+2)
	for x := range t {
		t[x] = int32(min(max(x-1, 0)/(n/parts), parts-1))
	}
	return t
}

// Get loads cell (i,j) through the memory system.
func (g *Grid) Get(p *mach.Proc, i, j int) float64 {
	sub, off := g.locate(i, j)
	return sub.Get(p, off)
}

// Set stores cell (i,j) through the memory system.
func (g *Grid) Set(p *mach.Proc, i, j int, v float64) {
	sub, off := g.locate(i, j)
	sub.Set(p, off, v)
}

// Peek reads without simulation (verification).
func (g *Grid) Peek(i, j int) float64 {
	sub, off := g.locate(i, j)
	//splash:allow accounting Grid.Peek is itself the documented verification escape hatch; callers are residual/verify code
	return sub.Peek(off)
}

// Init writes without simulation (input construction).
func (g *Grid) Init(i, j int, v float64) {
	sub, off := g.locate(i, j)
	sub.Init(off, v)
}

// N returns the interior dimension.
func (g *Grid) N() int { return g.n }

// Block returns processor p's interior cell range [i0,i1)×[j0,j1).
func (g *Grid) Block(pid int) (i0, i1, j0, j1 int) {
	bi, bj := pid/g.pc, pid%g.pc
	i0, i1 = g.rowStart[bi], g.rowStart[bi+1]
	j0, j1 = g.colStart[bj], g.colStart[bj+1]
	// Trim boundary rows/cols: interior only.
	if i0 == 0 {
		i0 = 1
	}
	if i1 == g.n+2 {
		i1 = g.n + 1
	}
	if j0 == 0 {
		j0 = 1
	}
	if j1 == g.n+2 {
		j1 = g.n + 1
	}
	return
}

// MaxAbsResidual computes ‖rhs − ∇²u‖∞ without simulation (verification).
func MaxAbsResidual(u, rhs *Grid, h float64) float64 {
	n := u.N()
	var worst float64
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			lap := (u.Peek(i-1, j) + u.Peek(i+1, j) + u.Peek(i, j-1) + u.Peek(i, j+1) - 4*u.Peek(i, j)) / (h * h)
			if r := math.Abs(rhs.Peek(i, j) - lap); r > worst {
				worst = r
			}
		}
	}
	return worst
}
