package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// chainLen returns the length of the inclusion chain the feed drives
// sys in.
func chainLen(f *Feed, sys *System) int {
	for _, head := range f.heads {
		n, in := 0, false
		for s := head; s != nil; s = s.next {
			n++
			in = in || s == sys
		}
		if in {
			return n
		}
	}
	return 0
}

// TestInclusionChainMatchesSingleReplays: on generated traces with reset
// markers, every system a feed drives as a member of an inclusion chain
// ends with the full Stats, hotspot peaks included, of a replay through
// its configuration alone (a chain of one), and ReplayMulti returns them
// in cfgs order. The sweeps cover associativity 1/2/4/8, line size
// 8/64/256 and hints on and off, with sizes listed out of order and one
// duplicated; and a chain with gaps next to configurations that must
// stay chains of one: a 48 KB 4-way cache (192 sets, dividing no other
// size's), a fully associative one, ones differing in line size,
// associativity or hints, and one added after the feed's first
// reference. Every member's protocol invariants are checked after every
// batch.
func TestInclusionChainMatchesSingleReplays(t *testing.T) {
	const procs = 4
	type member struct {
		cfg    Config
		single bool // must stay a chain of one
	}
	type sweep struct {
		name    string
		ls      int
		members []member
		late    *Config // added after the first batch
	}
	cfg := func(size, assoc, ls int, noHints bool) Config {
		return Config{Procs: procs, CacheSize: size, Assoc: assoc, LineSize: ls, NoReplacementHints: noHints}
	}
	var sweeps []sweep
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, ls := range []int{8, 64, 256} {
			for _, noHints := range []bool{false, true} {
				sw := sweep{name: fmt.Sprintf("%d-way, %d B lines, no hints %v", assoc, ls, noHints), ls: ls}
				for _, sets := range []int{8, 1, 32, 2, 8} {
					sw.members = append(sw.members, member{cfg: cfg(sets*assoc*ls, assoc, ls, noHints)})
				}
				sweeps = append(sweeps, sw)
			}
		}
	}
	late := cfg(16<<10, 4, 64, false)
	sweeps = append(sweeps, sweep{name: "gaps and singles", ls: 64, late: &late, members: []member{
		{cfg: cfg(64<<10, 4, 64, false)},
		{cfg: cfg(1<<10, 4, 64, false)},
		{cfg: cfg(4<<10, 4, 64, false)},
		{cfg: cfg(48<<10, 4, 64, false), single: true},
		{cfg: cfg(4<<10, FullyAssoc, 64, false), single: true},
		{cfg: cfg(2<<10, 4, 32, false), single: true},
		{cfg: cfg(2<<10, 2, 64, false), single: true},
		{cfg: cfg(2<<10, 4, 64, true), single: true},
	}})

	for seed := int64(1); seed <= 2; seed++ {
		for _, ls := range []int{8, 64, 256} {
			// Batches as mach flushes them: one processor's run of
			// references over a hot shared region of 64 lines and a
			// private one of 256, now and then after a reset marker.
			// Each batch is recorded in an epoch of its own, so the
			// trace is the batches in order.
			rng := rand.New(rand.NewSource(seed))
			rec := NewRecorder(64)
			var batches [][]uint64
			for refs, epoch := 0, uint64(1); refs < 3000; epoch++ {
				p := rng.Intn(procs)
				var b []uint64
				if rng.Intn(40) == 0 {
					rec.RecordResetAt(epoch)
					b = append(b, resetMarker)
				}
				n := len(b)
				for range 1 + rng.Intn(64) {
					a := Addr(rng.Intn(64 * ls))
					if rng.Intn(2) == 0 {
						a = Addr((64+p*256)*ls + rng.Intn(256*ls))
					}
					b = append(b, traceEvent(p, a&^7, rng.Intn(3) == 0))
				}
				rec.RecordBatch(p, epoch, append([]uint64(nil), b[n:]...))
				refs += len(b) - n
				batches = append(batches, b)
			}
			homes := make([]int32, (64+procs*256)*ls/64+1)
			for i := range homes {
				homes[i] = int32(i % procs)
			}
			tr := rec.Finish(homes)

			for _, sw := range sweeps {
				if sw.ls != ls {
					continue
				}
				what := fmt.Sprintf("seed %d, %s", seed, sw.name)
				feed := NewFeed(procs - 1)
				var cfgs []Config
				for _, m := range sw.members {
					sys, err := New(m.cfg, tr.HomeFn(m.cfg.LineSize))
					if err != nil {
						t.Fatal(err)
					}
					feed.Add(sys)
					cfgs = append(cfgs, m.cfg)
				}
				// The late system's oracle is a twin added at the same
				// point to a feed where nothing can chain with it.
				var lateSys *System
				twinFeed := NewFeed(procs - 1)
				if sw.late != nil {
					placeholder, err := New(cfg(1<<10, FullyAssoc, 64, false), tr.HomeFn(64))
					if err != nil {
						t.Fatal(err)
					}
					twinFeed.Add(placeholder)
				}
				for j, b := range batches {
					if err := feed.Batch(b, nil); err != nil {
						t.Fatal(err)
					}
					if err := twinFeed.Batch(b, nil); err != nil {
						t.Fatal(err)
					}
					if j == 0 && sw.late != nil {
						for _, f := range []*Feed{feed, twinFeed} {
							sys, err := New(*sw.late, tr.HomeFn(sw.late.LineSize))
							if err != nil {
								t.Fatal(err)
							}
							f.Add(sys)
						}
						lateSys = feed.Systems()[len(feed.Systems())-1]
					}
					for _, sys := range feed.Systems() {
						if err := sys.CheckInvariants(); err != nil {
							t.Fatalf("%s: %v after batch %d: %v", what, sys.Config(), j, err)
						}
					}
				}

				multi, err := ReplayMulti(tr, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range sw.members {
					sys := feed.Systems()[i]
					if single := chainLen(feed, sys) == 1; single != m.single {
						t.Errorf("%s: %v is a chain of one: %v, want %v", what, m.cfg, single, m.single)
					}
					want, err := Replay(tr, m.cfg)
					if err != nil {
						t.Fatal(err)
					}
					for name, got := range map[string]Stats{"feed": sys.Stats(), "ReplayMulti": multi[i]} {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %v: %s diverges from Replay:\n got %+v\nwant %+v", what, m.cfg, name, got, want)
						}
					}
				}
				if lateSys != nil {
					if n := chainLen(feed, lateSys); n != 1 {
						t.Errorf("%s: system added after the first reference is in a chain of %d", what, n)
					}
					twin := twinFeed.Systems()[1]
					if got, want := lateSys.Stats(), twin.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: late system diverges from its twin:\n got %+v\nwant %+v", what, got, want)
					}
				}
			}
		}
	}
}
