package memsys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func cacheCfg(size, assoc, line int) Config {
	return Config{Procs: 1, CacheSize: size, Assoc: assoc, LineSize: line, OverheadBytes: 8}
}

// testCacheLines is the address space, in lines, of every test cache.
const testCacheLines = 256

// testCache makes a cache whose row covers testCacheLines lines, as a
// System's tables would.
func testCache(size, assoc, line int) *cache {
	c := newCache(cacheCfg(size, assoc, line))
	c.row = make([]uint64, testCacheLines)
	return c
}

// lostAt is the row word a test loss leaves: a seq above a history code.
func lostAt(seq, code uint64) uint64 { return seq<<4 | code }

func TestCacheInsertLookup(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, FullyAssoc} {
		c := testCache(1024, assoc, 64)
		if st := c.lookup(5); st != Invalid {
			t.Fatalf("assoc=%d: empty cache lookup = %v", assoc, st)
		}
		c.insert(5, Shared, lostAt(1, histEvicted))
		if st := c.lookup(5); st != Shared {
			t.Fatalf("assoc=%d: lookup after insert = %v", assoc, st)
		}
		c.setState(5, Modified)
		if st := c.peek(5); st != Modified {
			t.Fatalf("assoc=%d: peek after setState = %v", assoc, st)
		}
		c.lose(5, lostAt(9, histInval))
		if st := c.lookup(5); st != Invalid {
			t.Fatalf("assoc=%d: lookup after lose = %v", assoc, st)
		}
		if h := c.row[5]; h != lostAt(9, histInval) {
			t.Fatalf("assoc=%d: row after lose = %#x, want %#x", assoc, h, lostAt(9, histInval))
		}
	}
}

func TestCacheLRUEvictionDirectMapped(t *testing.T) {
	// 4 lines of 64B, direct mapped => lines 0 and 4 conflict.
	c := testCache(256, 1, 64)
	c.insert(0, Modified, 0)
	victim, vstate, evicted := c.insert(4, Shared, lostAt(7, histEvicted))
	if !evicted || victim != 0 || vstate != Modified {
		t.Fatalf("expected eviction of line 0 (M), got victim=%d state=%v evicted=%v", victim, vstate, evicted)
	}
	if c.peek(0) != Invalid || c.peek(4) != Shared {
		t.Fatalf("post-eviction states wrong: %v %v", c.peek(0), c.peek(4))
	}
	if c.row[0] != lostAt(7, histEvicted) {
		t.Fatalf("victim's row = %#x, want the eviction's history", c.row[0])
	}
}

func TestCacheLRUOrderSetAssociative(t *testing.T) {
	// One set of 4 ways (fully sized as 4 lines, 4-way).
	c := testCache(256, 4, 64)
	for i := uint64(0); i < 4; i++ {
		c.insert(i*1, Shared, 0) // all map to set (line % 1 == 0): sets=1
	}
	// Touch line 0 so line 1 becomes LRU.
	c.lookup(0)
	victim, _, evicted := c.insert(100, Shared, 0)
	if !evicted || victim != 1 {
		t.Fatalf("expected LRU victim 1, got %d (evicted=%v)", victim, evicted)
	}
}

func TestCacheFullyAssociativeExactLRU(t *testing.T) {
	c := testCache(4*64, FullyAssoc, 64)
	for i := uint64(0); i < 4; i++ {
		c.insert(i, Shared, 0)
	}
	c.lookup(0)
	c.lookup(1)
	// LRU order now: 2 (oldest), 3, 0, 1.
	victim, _, evicted := c.insert(99, Shared, 0)
	if !evicted || victim != 2 {
		t.Fatalf("expected victim 2, got %d evicted=%v", victim, evicted)
	}
	victim, _, evicted = c.insert(98, Shared, 0)
	if !evicted || victim != 3 {
		t.Fatalf("expected victim 3, got %d evicted=%v", victim, evicted)
	}
}

func TestCacheReinsertDoesNotEvict(t *testing.T) {
	for _, assoc := range []int{2, FullyAssoc} {
		c := testCache(256, assoc, 64)
		c.insert(7, Shared, 0)
		_, _, evicted := c.insert(7, Modified, 0)
		if evicted {
			t.Fatalf("assoc=%d: reinsert evicted", assoc)
		}
		if c.peek(7) != Modified {
			t.Fatalf("assoc=%d: reinsert did not update state", assoc)
		}
		if c.resident() != 1 {
			t.Fatalf("assoc=%d: resident=%d after reinsert", assoc, c.resident())
		}
	}
}

func TestCacheInvalidSlotPreferred(t *testing.T) {
	c := testCache(256, 4, 64)
	for i := uint64(0); i < 4; i++ {
		c.insert(i, Shared, 0)
	}
	c.lose(2, lostAt(1, histInval))
	_, _, evicted := c.insert(50, Shared, 0)
	if evicted {
		t.Fatal("insert into set with a hole should not evict")
	}
	if c.resident() != 4 {
		t.Fatalf("resident=%d, want 4", c.resident())
	}
}

// Property: the cache never holds more present lines than its capacity,
// and every line its slots or LRU list hold is present in its row.
// Every associativity is driven with the same random trace.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(seed int64, assocSel uint8) bool {
		assocs := []int{1, 2, 4, FullyAssoc}
		assoc := assocs[int(assocSel)%len(assocs)]
		c := testCache(512, assoc, 64) // 8 lines
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			line := uint64(rng.Intn(32))
			switch rng.Intn(4) {
			case 0:
				c.insert(line, Shared, lostAt(uint64(i), histEvicted))
			case 1:
				c.insert(line, Modified, lostAt(uint64(i), histEvicted))
			case 2:
				c.lose(line, lostAt(uint64(i), histInval))
			case 3:
				c.lookup(line)
			}
			if c.resident() > 8 {
				return false
			}
			ok := true
			c.forEach(func(l uint64, st LineState) {
				if c.peek(l) != st {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fully associative cache of N lines always retains the N most
// recently used lines of any trace.
func TestCacheFullyAssocRetainsMRUProperty(t *testing.T) {
	f := func(seed int64) bool {
		const capLines = 8
		c := testCache(capLines*64, FullyAssoc, 64)
		rng := rand.New(rand.NewSource(seed))
		var order []uint64 // most recent last, unique
		touch := func(l uint64) {
			for i, x := range order {
				if x == l {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, l)
		}
		for i := 0; i < 300; i++ {
			l := uint64(rng.Intn(20))
			if c.peek(l) != Invalid {
				c.lookup(l)
			} else {
				c.insert(l, Shared, 0)
			}
			touch(l)
			// The last min(len(order), capLines) touched lines must be resident.
			start := 0
			if len(order) > capLines {
				start = len(order) - capLines
			}
			for _, want := range order[start:] {
				if c.peek(want) == Invalid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// naiveEntry is one line of naiveLRU.
type naiveEntry struct {
	line uint64
	st   LineState
}

// naiveLRU is the oracle of TestCacheMatchesNaiveLRU: per set, the
// present lines in most-recently-used-first order, and the history word
// each lost line keeps.
type naiveLRU struct {
	ways, sets int
	lists      [][]naiveEntry
	lost       map[uint64]uint64
}

func newNaiveLRU(lines, assoc int) *naiveLRU {
	if assoc == FullyAssoc {
		assoc = lines
	}
	return &naiveLRU{ways: assoc, sets: lines / assoc, lists: make([][]naiveEntry, lines/assoc), lost: map[uint64]uint64{}}
}

// find returns line's set and its position there, -1 when absent.
func (m *naiveLRU) find(line uint64) (set, i int) {
	set = int(line % uint64(m.sets))
	return set, slices.IndexFunc(m.lists[set], func(e naiveEntry) bool { return e.line == line })
}

func (m *naiveLRU) peek(line uint64) LineState {
	if s, i := m.find(line); i >= 0 {
		return m.lists[s][i].st
	}
	return Invalid
}

func (m *naiveLRU) lookup(line uint64) LineState {
	s, i := m.find(line)
	if i < 0 {
		return Invalid
	}
	e := m.lists[s][i]
	m.lists[s] = slices.Insert(slices.Delete(m.lists[s], i, i+1), 0, e)
	return e.st
}

func (m *naiveLRU) setState(line uint64, st LineState) {
	s, i := m.find(line)
	m.lists[s][i].st = st
}

func (m *naiveLRU) lose(line, h uint64) {
	if s, i := m.find(line); i >= 0 {
		m.lists[s] = slices.Delete(m.lists[s], i, i+1)
		m.lost[line] = h
	}
}

func (m *naiveLRU) insert(line uint64, st LineState, lost uint64) (victim uint64, vstate LineState, evicted bool) {
	if m.lookup(line) != Invalid {
		m.setState(line, st)
		return 0, Invalid, false
	}
	s, _ := m.find(line)
	if n := len(m.lists[s]); n == m.ways {
		v := m.lists[s][n-1]
		m.lists[s] = m.lists[s][:n-1]
		m.lost[v.line] = lost
		victim, vstate, evicted = v.line, v.st, true
	}
	m.lists[s] = slices.Insert(m.lists[s], 0, naiveEntry{line, st})
	return victim, vstate, evicted
}

// TestCacheMatchesNaiveLRU drives the cache and a per-set MRU list with
// the same insert/lookup/lose/setState calls and requires equal returned
// states, victims and evicted flags, equal contents, the loss history
// in every row, and no set naming a line twice. Each run starts with two
// scripted cases: a lose followed by a reinsert while the stale slot
// still names the line, and a full set with two holes.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	const (
		lines  = 8  // cache capacity
		span   = 40 // lines the random calls touch
		seen   = 64 // lines every check compares, the scripted ones included
		ops    = 2000
		traces = 10
	)
	for _, assoc := range []int{1, 2, 4, 8, FullyAssoc} {
		for seed := int64(0); seed < traces; seed++ {
			c := testCache(lines*64, assoc, 64)
			m := newNaiveLRU(lines, assoc)
			seq := uint64(0)
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("assoc=%d seed=%d op %d: %s", assoc, seed, seq, fmt.Sprintf(format, args...))
			}
			check := func() {
				t.Helper()
				for l := uint64(0); l < seen; l++ {
					got, want := c.peek(l), m.peek(l)
					if got != want {
						fail("line %d: cache holds %v, oracle %v", l, got, want)
					}
					if h, ok := m.lost[l]; ok && want == Invalid && c.row[l] != h {
						fail("line %d: row %#x, want loss history %#x", l, c.row[l], h)
					}
				}
				for s := 0; s < c.sets; s++ {
					named := map[uint64]bool{}
					for _, v := range c.slots[s*c.ways : (s+1)*c.ways] {
						if v != 0 && named[v] {
							fail("set %d names line %d twice", s, v-1)
						}
						named[v] = true
					}
				}
			}
			insert := func(line uint64, st LineState) {
				t.Helper()
				seq++
				lost := lostAt(seq, histEvicted)
				gv, gs, ge := c.insert(line, st, lost)
				wv, ws, we := m.insert(line, st, lost)
				if gv != wv || gs != ws || ge != we {
					fail("insert(%d): victim (%d, %v, %v), oracle (%d, %v, %v)", line, gv, gs, ge, wv, ws, we)
				}
				check()
			}
			lose := func(line uint64) {
				t.Helper()
				seq++
				c.lose(line, lostAt(seq, histInval))
				m.lose(line, lostAt(seq, histInval))
				check()
			}

			// Scripted: fill set 0, lose a line and reinsert it while its
			// slot still names it; then open two holes and fill them.
			sets := uint64(m.sets)
			for i := uint64(0); i < uint64(m.ways); i++ {
				insert(i*sets, Exclusive)
			}
			lose(0)
			insert(0, Shared)
			if m.ways >= 2 {
				lose(0)
				lose(sets)
				insert(8*sets, Modified)
				insert(9*sets, Shared)
				insert(10*sets, Shared) // set full again: evicts
			}

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				line := uint64(rng.Intn(span))
				st := LineState(1 + rng.Intn(3))
				switch rng.Intn(5) {
				case 0, 1:
					insert(line, st)
				case 2:
					lose(line)
				case 3:
					seq++
					if got, want := c.lookup(line), m.lookup(line); got != want {
						fail("lookup(%d) = %v, oracle %v", line, got, want)
					}
					check()
				case 4:
					seq++
					if m.peek(line) != Invalid {
						c.setState(line, st)
						m.setState(line, st)
					}
					check()
				}
			}
		}
	}
}
