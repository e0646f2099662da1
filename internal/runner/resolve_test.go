package runner

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"splash2/internal/fault"
)

// probeCounter counts Cache.Get calls per key: a zero-delay rule fires on
// every "cache.get:<key>" occurrence and each firing is logged, hit or
// miss alike (a probe of a missing entry never reaches the decoder).
func probeCounter(c *Cache) (probes func(Key) int) {
	inj := fault.New(1, fault.Rule{Pattern: "cache.get:*", Action: fault.Delay})
	c.SetFault(inj)
	return func(k Key) (n int) {
		for _, f := range inj.Fired() {
			if f.Op == "cache.get:"+k.String() {
				n++
			}
		}
		return n
	}
}

// storeInts writes v under each key in the runner's binary form, as an
// earlier run would have.
func storeInts(t *testing.T, c *Cache, vals map[Key]int) {
	t.Helper()
	codec := codecFor(reflect.TypeFor[int]())
	for k, v := range vals {
		data, err := codec.encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(context.Background(), k, data); err != nil {
			t.Fatal(err)
		}
	}
}

// resolveGraph submits roots root-0 … root-(n-1); root i depends on its
// own lazy dependency dep-i, and every dep-i on the lazy grand
// dependency shared by all of them. It returns the keys and the root
// handles; ran counts every job body that runs.
func resolveGraph(g *Graph, n int, ran *atomic.Int64) (roots, deps []Key, grand Key, handles []Job[int]) {
	grand = KeyOf("resolve", "grand")
	gh := Submit(g, Spec{Label: "grand", Key: grand, Lazy: true}, func(context.Context) (int, error) {
		ran.Add(1)
		return 1, nil
	})
	for i := range n {
		dk := KeyOf("resolve", "dep", i)
		dh := Submit(g, Spec{Label: fmt.Sprint("dep-", i), Key: dk, Lazy: true, Deps: []Handle{gh}},
			func(context.Context) (int, error) {
				ran.Add(1)
				v, err := gh.Result()
				return v + 10*i, err
			})
		rk := KeyOf("resolve", "root", i)
		rh := Submit(g, Spec{Label: fmt.Sprint("root-", i), Key: rk, Deps: []Handle{dh}},
			func(context.Context) (int, error) {
				ran.Add(1)
				v, err := dh.Result()
				return v + 1000, err
			})
		roots, deps, handles = append(roots, rk), append(deps, dk), append(handles, rh)
	}
	return roots, deps, grand, handles
}

// TestResolveProbesOnlyCachedRoots: a graph whose demanded roots are all
// cached, over uncached lazy dependencies, resolves at 1, 2 and 8 workers
// with one probe per root, none of any dependency, and nothing executed.
func TestResolveProbesOnlyCachedRoots(t *testing.T) {
	const n = 12
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", w), func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stored := map[Key]int{}
			for i := range n {
				stored[KeyOf("resolve", "root", i)] = 7 * i
			}
			storeInts(t, c, stored)
			probes := probeCounter(c)

			var ran atomic.Int64
			r := New(Options{Workers: w, Cache: c})
			g := r.NewGraph()
			roots, deps, grand, handles := resolveGraph(g, n, &ran)
			if err := g.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, k := range roots {
				if probes(k) != 1 {
					t.Errorf("root-%d probed %d times, want 1", i, probes(k))
				}
				if v, err := handles[i].Result(); err != nil || v != 7*i {
					t.Errorf("root-%d = %d, %v; want %d", i, v, err, 7*i)
				}
			}
			for i, k := range append(deps, grand) {
				if probes(k) != 0 {
					t.Errorf("dependency %d of a hit probed %d times", i, probes(k))
				}
			}
			if c := r.Counts(); c.CacheHits != n || c.Executed != 0 || ran.Load() != 0 {
				t.Errorf("counts %+v, %d bodies ran; want %d hits and nothing executed", c, ran.Load(), n)
			}
		})
	}
}

// TestResolveMissProbesDependencies: the roots that miss demand their
// dependencies, which are probed once each — the grand dependency two
// misses share included — and execute; the dependencies of the hits are
// never probed.
func TestResolveMissProbesDependencies(t *testing.T) {
	const n = 8
	miss := map[int]bool{0: true, 5: true}
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", w), func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stored := map[Key]int{}
			for i := range n {
				if !miss[i] {
					stored[KeyOf("resolve", "root", i)] = 7 * i
				}
			}
			storeInts(t, c, stored)
			probes := probeCounter(c)

			var ran atomic.Int64
			r := New(Options{Workers: w, Cache: c})
			g := r.NewGraph()
			roots, deps, grand, handles := resolveGraph(g, n, &ran)
			if err := g.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if probes(grand) != 1 {
				t.Errorf("shared grand dependency probed %d times, want 1", probes(grand))
			}
			for i := range n {
				want, wantDep, wantProbes := 7*i, 0, 1
				if miss[i] {
					want, wantDep = 1+10*i+1000, 1
				}
				if probes(roots[i]) != wantProbes {
					t.Errorf("root-%d probed %d times, want 1", i, probes(roots[i]))
				}
				if probes(deps[i]) != wantDep {
					t.Errorf("dep-%d probed %d times, want %d", i, probes(deps[i]), wantDep)
				}
				if v, err := handles[i].Result(); err != nil || v != want {
					t.Errorf("root-%d = %d, %v; want %d", i, v, err, want)
				}
			}
			// Each miss runs its root and its dependency; the grand
			// dependency runs once for both.
			executed := int64(2*len(miss) + 1)
			if c := r.Counts(); c.CacheHits != int64(n-len(miss)) || c.Executed != executed || ran.Load() != executed {
				t.Errorf("counts %+v, %d bodies ran; want %d hits and %d executed", c, ran.Load(), n-len(miss), executed)
			}
		})
	}
}
