package radiosity

import (
	"fmt"
	"math"

	"splash2/internal/mach"
)

// Run executes the iterations: each step processes patch tasks (gather +
// recursive subdivision) through the stealing task queues, then combines
// radiosities via an upward pass through each polygon's quadtree.
func (r *Radiosity) Run(m *mach.Machine) {
	m.Run(func(p *mach.Proc) {
		for it := 0; it < r.iters; it++ {
			// Seed: current leaves of the polygon quadtrees, distributed
			// round-robin by polygon.
			for poly := p.ID; poly < r.npolys; poly += m.Procs() {
				r.pushLeafTasks(p, poly)
			}
			r.barrier.Wait(p)
			for {
				patch, ok := r.queues.PopOrSteal(p)
				if !ok {
					break
				}
				r.process(p, patch)
				r.queues.Done(p)
			}
			r.barrier.Wait(p)
			// Push-pull: new radiosities up each polygon quadtree.
			for poly := p.ID; poly < r.npolys; poly += m.Procs() {
				r.pull(p, poly)
			}
			r.barrier.Wait(p)
		}
	})
}

// pushLeafTasks enqueues every current leaf patch of a polygon's quadtree.
func (r *Radiosity) pushLeafTasks(p *mach.Proc, patch int) {
	c0 := r.children.Get(p, 4*patch)
	if c0 == -1 {
		r.queues.Push(p, patch)
		return
	}
	for o := 0; o < 4; o++ {
		r.pushLeafTasks(p, r.children.Get(p, 4*patch+o))
	}
}

// process refines or gathers at one leaf patch: if any interaction's
// estimated form factor exceeds the threshold and the patch is large
// enough, the patch subdivides and its children become tasks; otherwise
// the patch gathers radiosity from its interaction list.
func (r *Radiosity) process(p *mach.Proc, patch int) {
	base := geomStride * patch
	area := r.geom.Get(p, base+gArea)
	n := r.icount.Get(p, patch)

	var gathered float64
	refine := false
	for k := 0; k < n; k++ {
		q := r.ilist.Get(p, patch*r.icap+k)
		F := r.formFactor(p, patch, q)
		if F > fThresh && area > r.minArea {
			refine = true
			break
		}
		if F <= 0 {
			continue
		}
		if !r.visible(p, patch, q) {
			continue
		}
		gathered += F * r.rad.Get(p, q)
		p.Flop(2)
	}

	if refine {
		r.subdivide(p, patch)
		return
	}
	refl := r.geom.Get(p, base+gRefl)
	r.gathered.Set(p, patch, refl*gathered)
	p.Flop(1)
}

// formFactor estimates the point-to-area form factor from patch a to b.
func (r *Radiosity) formFactor(p *mach.Proc, a, b int) float64 {
	ga, gb := geomStride*a, geomStride*b
	dx := r.fget(p, gb+gCX) - r.fget(p, ga+gCX)
	dy := r.fget(p, gb+gCY) - r.fget(p, ga+gCY)
	dz := r.fget(p, gb+gCZ) - r.fget(p, ga+gCZ)
	d2 := dx*dx + dy*dy + dz*dz
	if d2 == 0 {
		return 0
	}
	d := math.Sqrt(d2)
	cp := (r.fget(p, ga+gNX)*dx + r.fget(p, ga+gNY)*dy + r.fget(p, ga+gNZ)*dz) / d
	cq := -(r.fget(p, gb+gNX)*dx + r.fget(p, gb+gNY)*dy + r.fget(p, gb+gNZ)*dz) / d
	if p != nil {
		p.Flop(20)
	}
	if cp <= 0 || cq <= 0 {
		return 0
	}
	ab := r.fget(p, gb+gArea)
	return cp * cq * ab / (math.Pi*d2 + ab)
}

// subdivide creates four children covering the patch's rectangle, each
// inheriting the interaction list, and pushes them as new tasks.
func (r *Radiosity) subdivide(p *mach.Proc, patch int) {
	r.allocLock.Acquire(p)
	id := r.allocN.Get(p, 0)
	r.allocN.Set(p, 0, id+4)
	r.allocLock.Release(p)
	if id+4 > r.cap {
		panic("radiosity: patch pool exhausted")
	}

	base := geomStride * patch
	var e1, e2, nrm [3]float64
	for d := 0; d < 3; d++ {
		e1[d] = r.geom.Get(p, base+gE1X+d)
		e2[d] = r.geom.Get(p, base+gE2X+d)
		nrm[d] = r.geom.Get(p, base+gNX+d)
	}
	cx := r.geom.Get(p, base+gCX)
	cy := r.geom.Get(p, base+gCY)
	cz := r.geom.Get(p, base+gCZ)
	// Rectangle corner from center.
	c0 := [3]float64{cx - (e1[0]+e2[0])/2, cy - (e1[1]+e2[1])/2, cz - (e1[2]+e2[2])/2}
	area := r.geom.Get(p, base+gArea)
	emit := r.geom.Get(p, base+gEmit)
	refl := r.geom.Get(p, base+gRefl)
	bRad := r.rad.Get(p, patch)
	poly := r.polyID.Get(p, patch)
	n := r.icount.Get(p, patch)

	for o := 0; o < 4; o++ {
		child := id + o
		cb := geomStride * child
		uo := float64(o&1) / 2
		vo := float64(o>>1) / 2
		ctr := [3]float64{}
		for d := 0; d < 3; d++ {
			half1 := e1[d] / 2
			half2 := e2[d] / 2
			r.geom.Set(p, cb+gE1X+d, half1)
			r.geom.Set(p, cb+gE2X+d, half2)
			r.geom.Set(p, cb+gNX+d, nrm[d])
			ctr[d] = c0[d] + e1[d]*uo + e2[d]*vo + half1/2 + half2/2
		}
		r.geom.Set(p, cb+gCX, ctr[0])
		r.geom.Set(p, cb+gCY, ctr[1])
		r.geom.Set(p, cb+gCZ, ctr[2])
		r.geom.Set(p, cb+gArea, area/4)
		r.geom.Set(p, cb+gEmit, emit)
		r.geom.Set(p, cb+gRefl, refl)
		r.rad.Set(p, child, bRad)
		r.gathered.Set(p, child, 0)
		r.polyID.Set(p, child, poly)
		for oo := 0; oo < 4; oo++ {
			r.children.Set(p, 4*child+oo, -1)
		}
		for k := 0; k < n; k++ {
			r.ilist.Set(p, child*r.icap+k, r.ilist.Get(p, patch*r.icap+k))
		}
		r.icount.Set(p, child, n)
		r.children.Set(p, 4*patch+o, child)
		p.Flop(24)
		r.queues.Push(p, child)
	}
}

// pull combines radiosities upward: leaves take E + gathered, interior
// patches the area-weighted average of their children.
func (r *Radiosity) pull(p *mach.Proc, patch int) float64 {
	base := geomStride * patch
	if r.children.Get(p, 4*patch) == -1 {
		b := r.geom.Get(p, base+gEmit) + r.gathered.Get(p, patch)
		r.rad.Set(p, patch, b)
		p.Flop(1)
		return b
	}
	var sum float64
	for o := 0; o < 4; o++ {
		c := r.children.Get(p, 4*patch+o)
		cb := r.pull(p, c)
		sum += cb * r.geom.Get(p, geomStride*c+gArea)
		p.Flop(2)
	}
	b := sum / r.geom.Get(p, base+gArea)
	r.rad.Set(p, patch, b)
	p.Flop(1)
	return b
}

// Verify checks physical invariants of the converged solution.
func (r *Radiosity) Verify() error {
	total := r.allocN.Peek(0)
	if total <= r.npolys {
		return fmt.Errorf("radiosity: no patch was ever subdivided (%d patches)", total)
	}
	// Energy bound: total radiosity ≤ total emission / (1 − max ρ).
	var emitted, radiated float64
	maxRefl := 0.0
	brightest := 0.0
	brightestIsEmitter := false
	for i := 0; i < r.npolys; i++ {
		base := geomStride * i
		a := r.geom.Peek(base + gArea)
		emitted += r.geom.Peek(base+gEmit) * a
		radiated += r.rad.Peek(i) * a
		if rf := r.geom.Peek(base + gRefl); rf > maxRefl {
			maxRefl = rf
		}
		if b := r.rad.Peek(i); b > brightest {
			brightest = b
			brightestIsEmitter = r.geom.Peek(base+gEmit) > 0
		}
	}
	for i := 0; i < total; i++ {
		b := r.rad.Peek(i)
		if math.IsNaN(b) || b < 0 {
			return fmt.Errorf("radiosity: patch %d radiosity %v", i, b)
		}
	}
	if radiated > emitted/(1-maxRefl)+1e-9 {
		return fmt.Errorf("radiosity: energy bound violated: radiated %g > %g", radiated, emitted/(1-maxRefl))
	}
	if !brightestIsEmitter {
		return fmt.Errorf("radiosity: brightest polygon is not the light source")
	}
	// Children partition parents: areas must sum.
	for i := 0; i < total; i++ {
		if r.children.Peek(4*i) == -1 {
			continue
		}
		var sum float64
		for o := 0; o < 4; o++ {
			sum += r.geom.Peek(geomStride*r.children.Peek(4*i+o) + gArea)
		}
		if parent := r.geom.Peek(geomStride*i + gArea); math.Abs(sum-parent) > 1e-9*(parent+1) {
			return fmt.Errorf("radiosity: children of %d cover %g of %g", i, sum, parent)
		}
	}
	return nil
}

// Patches returns the number of patches in the pool (tests).
//
//splash:allow accounting result export after the measured phase (patch count for reporting)
func (r *Radiosity) Patches() int { return r.allocN.Peek(0) }
