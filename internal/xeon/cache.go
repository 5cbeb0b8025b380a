package xeon

import "math"

// noLine tags an invalid way. No model address maps to it (a line is an
// address divided by the line size), so every int64 a caller can pass,
// negative ones included, is a distinct line.
const noLine = math.MinInt64

// way is one cache line slot: its tag (noLine when invalid) and whether it
// holds modified data.
type way struct {
	tag   int64
	dirty bool
}

// cache is a set-associative cache with true-LRU replacement, keyed by line
// number. It tracks presence only — data is carried functionally by the
// kernels — which is all a timing model needs.
//
// Each set is kept in recency order, most recent first, so a probe reads
// one contiguous run and the LRU victim is always the set's last way. Ways
// are never invalidated, so a set's invalid ways are always a suffix: a
// fill takes the first invalid way while one exists, then the least
// recently used one — the same victim a per-way timestamp scan picks.
type cache struct {
	sets    int
	setMask int64 // sets-1 when sets is a power of two, else -1
	assoc   int
	ways    []way // sets*assoc entries, each set most-recent-first
	hits    uint64
	misses  uint64
	inserts uint64
}

// newCache builds a cache of the given total size in lines.
func newCache(totalBytes, lineBytes, assoc int) *cache {
	lines := totalBytes / lineBytes
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	c := &cache{
		sets:    sets,
		setMask: -1,
		assoc:   assoc,
		ways:    make([]way, sets*assoc),
	}
	if sets&(sets-1) == 0 {
		c.setMask = int64(sets - 1)
	}
	for i := range c.ways {
		c.ways[i].tag = noLine
	}
	return c
}

// setOf returns line's set, most recent way first. Realistic geometries
// have power-of-two set counts, where the Euclidean modulus reduces to a
// mask (valid for negative lines too: two's-complement AND is the positive
// residue); odd set counts fall back to the division form.
//
//emu:hotpath probed once per tag lookup/insert
func (c *cache) setOf(line int64) []way {
	var s int
	if c.setMask >= 0 {
		s = int(line & c.setMask)
	} else {
		s = int(line % int64(c.sets))
		if s < 0 {
			s += c.sets
		}
	}
	base := s * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// find returns line's way index within set, or -1. An invalid way's tag
// matches no line, so the scan needs one compare per way.
//
//emu:hotpath
func find(set []way, line int64) int {
	for i := range set {
		if set[i].tag == line {
			return i
		}
	}
	return -1
}

// touch makes way i of set the most recent one.
//
//emu:hotpath
func touch(set []way, i int) {
	if i == 0 {
		return
	}
	w := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = w
}

// lookup probes for line, updating LRU state on a hit. It reports whether
// the line was present.
//
//emu:hotpath
func (c *cache) lookup(line int64) bool {
	set := c.setOf(line)
	if i := find(set, line); i >= 0 {
		touch(set, i)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// contains probes without updating LRU or statistics.
//
//emu:hotpath
func (c *cache) contains(line int64) bool {
	return find(c.setOf(line), line) >= 0
}

// markDirty flags a resident line as modified; it is a no-op for lines
// not present.
//
//emu:hotpath
func (c *cache) markDirty(line int64) {
	set := c.setOf(line)
	if i := find(set, line); i >= 0 {
		set[i].dirty = true
	}
}

// insert fills line, evicting the LRU way of its set if needed, and
// reports the evicted line and whether it was dirty (needing writeback);
// evicted is -1 when no valid line was displaced. Inserting a line that is
// already present only makes it the most recent.
//
//emu:hotpath
func (c *cache) insert(line int64) (evicted int64, wasDirty bool) {
	set := c.setOf(line)
	if i := find(set, line); i >= 0 {
		touch(set, i)
		return -1, false
	}
	victim := set[len(set)-1]
	copy(set[1:], set[:len(set)-1])
	set[0] = way{tag: line}
	c.inserts++
	if victim.tag == noLine {
		return -1, false
	}
	return victim.tag, victim.dirty
}

// lines reports the cache's capacity in lines.
func (c *cache) lines() int { return c.sets * c.assoc }

// resident counts valid lines (test helper; O(capacity)).
func (c *cache) resident() int {
	n := 0
	for _, w := range c.ways {
		if w.tag != noLine {
			n++
		}
	}
	return n
}
