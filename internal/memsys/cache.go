package memsys

// LineState is the Illinois-protocol state of a line in one cache:
// dirty (Modified), shared (Shared), valid-exclusive (Exclusive), and
// invalid — the four states named in §2.2 of the paper.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Exclusive // valid-exclusive: clean, only copy
	Modified  // dirty
)

// String implements fmt.Stringer for LineState.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Codes in the low two bits of a (processor, line) row word: the line's
// history in that processor's cache.
const (
	histNone    = 0 // never cached by this processor
	histPresent = 1
	histEvicted = 2
	histInval   = 3
	histMask    = 3
)

// fnode is one entry of a fully associative cache's LRU list.
type fnode struct {
	line       uint64
	prev, next *fnode
}

// cache models one processor's single-level cache with LRU replacement.
// Its state is row, one word per line of the address space:
//
//	row[line] = stamp<<4 | state<<2 | code
//
// code is the line's history: histNone, histPresent, histEvicted or
// histInval. While the line is present, state is its Illinois state and,
// in a set-associative cache, stamp is its LRU timestamp (higher = more
// recently used), read from lru's row: a cache in a smaller member of an
// inclusion chain (see Feed) uses the stamps of the same processor's
// cache in the chain's largest member and leaves its own unread. Once
// the line is lost, the upper bits hold the feed's seq at the loss,
// which classify reads. A hit reads and rewrites that one word.
//
// A set-associative cache keeps slots only to choose victims: set i
// occupies slots[i*ways : (i+1)*ways], and a slot holds line+1, 0 when
// never filled. A slot whose line is not present is a hole, and no set
// names a line twice. A fully associative cache orders its lines with
// an exact LRU list over a hash index instead.
type cache struct {
	row   []uint64
	stamp uint64
	lru   *cache // holds this cache's LRU stamps; itself unless chained

	ways    int
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)
	slots   []uint64

	full  bool
	cap   int
	index map[uint64]*fnode
	head  *fnode // most recently used
	tail  *fnode // least recently used
}

// newCache makes an empty cache whose row covers no line; the owner
// sizes row for its address space.
func newCache(cfg Config) *cache {
	c := &cache{full: cfg.Assoc == FullyAssoc}
	c.lru = c
	if c.full {
		c.cap = cfg.lines()
		c.index = make(map[uint64]*fnode, c.cap)
		return c
	}
	c.ways = cfg.ways()
	c.sets = cfg.sets()
	if c.sets&(c.sets-1) == 0 {
		c.setMask = uint64(c.sets - 1)
	}
	c.slots = make([]uint64, c.sets*c.ways)
	return c
}

// lookup returns the state of line, touching it for LRU. Invalid means miss.
func (c *cache) lookup(line uint64) LineState {
	h := c.row[line]
	if h&histMask != histPresent {
		return Invalid
	}
	if c.full {
		c.moveToFront(c.index[line])
	} else {
		c.stamp++
		c.row[line] = c.stamp<<4 | h&0xf
	}
	return LineState(h >> 2 & 3)
}

// touch moves a present line to the front of a set-associative cache's
// LRU order, as a hit does.
func (c *cache) touch(line uint64) {
	c.stamp++
	c.row[line] = c.stamp<<4 | c.row[line]&0xf
}

// peek returns the state of line without touching LRU.
func (c *cache) peek(line uint64) LineState {
	if h := c.row[line]; h&histMask == histPresent {
		return LineState(h >> 2 & 3)
	}
	return Invalid
}

// setState changes the state of a resident line. The line must be present.
func (c *cache) setState(line uint64, st LineState) {
	h := c.row[line]
	if h&histMask != histPresent {
		panic("memsys: setState on non-resident line")
	}
	c.row[line] = h&^(3<<2) | uint64(st)<<2
}

// lose drops line if it is present and leaves h, the loss's seq<<4 above
// its history code, in its row. A slot that names the line becomes a
// hole. A line that is not present keeps its history.
func (c *cache) lose(line, h uint64) {
	if c.row[line]&histMask != histPresent {
		return
	}
	c.row[line] = h
	if c.full {
		c.unlink(c.index[line])
		delete(c.index, line)
	}
}

// insert places line with the given state, evicting the LRU line of its
// set if necessary; the victim's row keeps lost. It reports the victim
// line and state when a present line was evicted.
//
// A set-associative insert takes, in one scan of the set, the slot that
// still names the line (left by an earlier loss), else the first hole,
// else the present line with the smallest stamp.
func (c *cache) insert(line uint64, st LineState, lost uint64) (victim uint64, vstate LineState, evicted bool) {
	if c.lookup(line) != Invalid { // re-insert after upgrade path
		c.setState(line, st)
		return 0, Invalid, false
	}
	if c.full {
		if len(c.index) >= c.cap {
			v := c.tail
			c.unlink(v)
			delete(c.index, v.line)
			victim, vstate, evicted = v.line, c.peek(v.line), true
			c.row[v.line] = lost
		}
		n := &fnode{line: line}
		c.pushFront(n)
		c.index[line] = n
		c.row[line] = uint64(st)<<2 | histPresent
		return victim, vstate, evicted
	}

	set := c.set(line)
	stamps := c.lru.row
	want := line + 1
	slot, hole, lru := -1, -1, 0
	oldest := ^uint64(0)
	for i, v := range set {
		if v == want {
			slot = i
			break
		}
		var h uint64
		if v != 0 {
			h = c.row[v-1]
		}
		if h&histMask != histPresent {
			if hole < 0 {
				hole = i
			}
		} else if t := stamps[v-1] >> 4; t < oldest {
			oldest, lru = t, i
		}
	}
	switch {
	case slot >= 0:
	case hole >= 0:
		slot = hole
	default:
		slot = lru
		victim = set[slot] - 1
		vstate, evicted = c.peek(victim), true
		c.row[victim] = lost
	}
	c.stamp++
	set[slot] = want
	c.row[line] = c.stamp<<4 | uint64(st)<<2 | histPresent
	return victim, vstate, evicted
}

// resident returns the number of present lines (used by invariant tests).
func (c *cache) resident() int {
	n := 0
	c.forEach(func(uint64, LineState) { n++ })
	return n
}

// forEach visits every present line through the LRU structure rather
// than the row (used by invariant tests).
func (c *cache) forEach(f func(line uint64, st LineState)) {
	if c.full {
		//splash:allow determinism feeds the order-independent invariant checker (bitset aggregation), never results or traces
		for l := range c.index {
			f(l, c.peek(l))
		}
		return
	}
	for _, v := range c.slots {
		if v != 0 {
			if st := c.peek(v - 1); st != Invalid {
				f(v-1, st)
			}
		}
	}
}

func (c *cache) set(line uint64) []uint64 {
	var s int
	if c.setMask != 0 || c.sets == 1 {
		s = int(line & c.setMask)
	} else {
		s = int(line % uint64(c.sets))
	}
	return c.slots[s*c.ways : (s+1)*c.ways]
}

func (c *cache) moveToFront(n *fnode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *cache) pushFront(n *fnode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *cache) unlink(n *fnode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
