// Package cache is a set-associative, write-back, write-allocate cache
// with LRU replacement. The timing simulator uses it as the recursive
// schemes' PosMap Lookaside Buffer (PLB); the simulated core sees LLC
// misses directly, so there is no L1/L2 model.
package cache

import "fmt"

// Cache is one set-associative write-back level.
type Cache struct {
	name       string
	sets       int
	ways       int
	lineBytes  int
	readCycle  int
	writeCycle int

	tags  [][]uint64 // [set][way] line address (addr / lineBytes)
	valid [][]bool
	dirty [][]bool
	// lru[set][way]: larger = more recently used.
	lru     [][]uint64
	lruTick uint64

	hits, misses, writebacks uint64
}

// New creates a cache of sizeBytes with the given associativity.
func New(name string, sizeBytes, ways, lineBytes, readCycle, writeCycle int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %d/%d/%d", sizeBytes, ways, lineBytes))
	}
	lines := sizeBytes / lineBytes
	sets := lines / ways
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: %dB with %d ways has zero sets", name, sizeBytes, ways))
	}
	c := &Cache{
		name: name, sets: sets, ways: ways, lineBytes: lineBytes,
		readCycle: readCycle, writeCycle: writeCycle,
	}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for s := 0; s < sets; s++ {
		c.tags[s] = make([]uint64, ways)
		c.valid[s] = make([]bool, ways)
		c.dirty[s] = make([]bool, ways)
		c.lru[s] = make([]uint64, ways)
	}
	return c
}

// Result of one cache access.
type Result struct {
	Hit bool
	// Latency in core cycles charged by this level.
	Latency int
	// Writeback, when non-nil, is the dirty victim line address that
	// must be written to the next level.
	Writeback *uint64
}

// Access looks up the line containing addr (a block/line address, not a
// byte address). On a miss the line is allocated and the LRU victim
// evicted (returned if dirty).
func (c *Cache) Access(line uint64, write bool) Result {
	set := int(line % uint64(c.sets))
	c.lruTick++
	lat := c.readCycle
	if write {
		lat = c.writeCycle
	}
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == line {
			c.hits++
			c.lru[set][w] = c.lruTick
			if write {
				c.dirty[set][w] = true
			}
			return Result{Hit: true, Latency: lat}
		}
	}
	c.misses++
	// Choose victim: invalid way first, else LRU.
	victim := 0
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	res := Result{Hit: false, Latency: lat}
	if c.valid[set][victim] && c.dirty[set][victim] {
		wb := c.tags[set][victim]
		res.Writeback = &wb
		c.writebacks++
	}
	c.tags[set][victim] = line
	c.valid[set][victim] = true
	c.dirty[set][victim] = write
	c.lru[set][victim] = c.lruTick
	return res
}

// Stats returns (hits, misses, writebacks).
func (c *Cache) Stats() (hits, misses, writebacks uint64) {
	return c.hits, c.misses, c.writebacks
}

// HitRate returns hits/(hits+misses), 0 when never accessed.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
