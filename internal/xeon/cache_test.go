package xeon

import (
	"testing"
	"testing/quick"

	"emuchick/internal/workload"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := newCache(1024, 64, 4) // 16 lines, 4 sets
	if c.lookup(5) {
		t.Fatal("hit in empty cache")
	}
	c.insert(5)
	if !c.lookup(5) {
		t.Fatal("miss after insert")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.hits, c.misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(4*64, 64, 4) // one set of 4 ways
	for line := int64(0); line < 4; line++ {
		c.insert(line * 1) // all map to set 0 (sets=1)
	}
	c.lookup(0) // refresh line 0 -> line 1 is now LRU
	c.insert(100)
	if !c.contains(0) {
		t.Fatal("recently used line evicted")
	}
	if c.contains(1) {
		t.Fatal("LRU line survived")
	}
	if !c.contains(100) {
		t.Fatal("inserted line absent")
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := newCache(4*64, 64, 4)
	for line := int64(0); line < 4; line++ {
		c.insert(line)
	}
	c.insert(0) // refresh, not duplicate
	c.insert(50)
	if c.contains(1) {
		t.Fatal("line 1 should be the eviction victim")
	}
	if !c.contains(0) {
		t.Fatal("refreshed line evicted")
	}
	// No duplicates: resident count equals capacity.
	if c.resident() != 4 {
		t.Fatalf("resident = %d", c.resident())
	}
}

func TestCacheSetIsolation(t *testing.T) {
	c := newCache(2*2*64, 64, 2) // 2 sets x 2 ways
	// Lines 0,2,4,6 map to set 0; lines 1,3 to set 1.
	c.insert(0)
	c.insert(2)
	c.insert(4) // evicts 0 from set 0
	if c.contains(0) {
		t.Fatal("set-0 eviction missing")
	}
	c.insert(1)
	if !c.contains(1) || !c.contains(2) || !c.contains(4) {
		t.Fatal("set isolation broken")
	}
}

func TestCacheNegativeLineSafety(t *testing.T) {
	c := newCache(1024, 64, 4)
	c.insert(-7) // must not panic; -7 mod sets handled
	if !c.contains(-7) {
		t.Fatal("negative line lost")
	}
}

// Property: the cache never holds more distinct lines than its capacity,
// and a just-inserted line is always resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(lines []int16) bool {
		c := newCache(8*64, 64, 2) // 8 lines
		for _, l := range lines {
			c.insert(int64(l))
			if !c.contains(int64(l)) {
				return false
			}
			if c.resident() > c.lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stampCache is the reference the recency-ordered cache must match: the
// classic timestamp LRU, which stamps a way on every touch and evicts the
// first invalid way of a set, else its smallest stamp.
type stampCache struct {
	sets, assoc int
	tags        []int64
	valid       []bool
	dirty       []bool
	stamps      []uint64
	tick        uint64
}

func newStampCache(totalBytes, lineBytes, assoc int) *stampCache {
	sets := max(totalBytes/lineBytes/assoc, 1)
	n := sets * assoc
	return &stampCache{sets: sets, assoc: assoc, tags: make([]int64, n),
		valid: make([]bool, n), dirty: make([]bool, n), stamps: make([]uint64, n)}
}

func (c *stampCache) base(line int64) int {
	s := int(line % int64(c.sets))
	if s < 0 {
		s += c.sets
	}
	return s * c.assoc
}

func (c *stampCache) find(line int64) int {
	b := c.base(line)
	for i := b; i < b+c.assoc; i++ {
		if c.valid[i] && c.tags[i] == line {
			return i
		}
	}
	return -1
}

func (c *stampCache) lookup(line int64) bool {
	if i := c.find(line); i >= 0 {
		c.tick++
		c.stamps[i] = c.tick
		return true
	}
	return false
}

func (c *stampCache) contains(line int64) bool { return c.find(line) >= 0 }

func (c *stampCache) markDirty(line int64) {
	if i := c.find(line); i >= 0 {
		c.dirty[i] = true
	}
}

func (c *stampCache) insert(line int64) (int64, bool) {
	c.tick++
	if i := c.find(line); i >= 0 {
		c.stamps[i] = c.tick
		return -1, false
	}
	b := c.base(line)
	victim := b
	for i := b; i < b+c.assoc; i++ {
		if !c.valid[i] {
			victim = i
			break
		}
		if c.stamps[i] < c.stamps[victim] {
			victim = i
		}
	}
	ev, evDirty, evValid := c.tags[victim], c.dirty[victim], c.valid[victim]
	c.tags[victim], c.valid[victim], c.dirty[victim], c.stamps[victim] = line, true, false, c.tick
	if !evValid {
		return -1, false
	}
	return ev, evDirty
}

// TestCacheMatchesStampLRU drives the recency-ordered cache and the stamp
// LRU reference through one random trace of lookups, inserts, dirty marks
// and probes, over geometries with power-of-two and odd set counts and
// lines of both signs, and requires every return value to agree.
func TestCacheMatchesStampLRU(t *testing.T) {
	geoms := []struct{ bytes, assoc int }{
		{8 * 64, 1}, {8 * 64, 2}, {16 * 64, 4}, {12 * 64, 4}, {40 * 64, 8}, {20 * 64, 20},
	}
	rng := workload.NewRNG(17)
	for _, g := range geoms {
		c, ref := newCache(g.bytes, 64, g.assoc), newStampCache(g.bytes, 64, g.assoc)
		span := int64(3 * c.lines())
		for step := 0; step < 20000; step++ {
			line := int64(rng.Intn(int(span))) - span/4
			switch op := rng.Intn(4); op {
			case 0:
				if got, want := c.lookup(line), ref.lookup(line); got != want {
					t.Fatalf("%+v step %d: lookup(%d) = %v, want %v", g, step, line, got, want)
				}
			case 1:
				gotEv, gotDirty := c.insert(line)
				wantEv, wantDirty := ref.insert(line)
				if gotEv != wantEv || gotDirty != wantDirty {
					t.Fatalf("%+v step %d: insert(%d) = (%d, %v), want (%d, %v)",
						g, step, line, gotEv, gotDirty, wantEv, wantDirty)
				}
			case 2:
				c.markDirty(line)
				ref.markDirty(line)
			case 3:
				if got, want := c.contains(line), ref.contains(line); got != want {
					t.Fatalf("%+v step %d: contains(%d) = %v, want %v", g, step, line, got, want)
				}
			}
		}
	}
}
