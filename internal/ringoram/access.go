package ringoram

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/oram"
)

// Access performs one Ring ORAM access: ReadPath, then the scheduled
// EvictPath every A accesses, then any early reshuffles the read made
// necessary. Returns the value read (or the previous value for a write).
func (c *Controller) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, error) {
	if c.crashed {
		return nil, fmt.Errorf("ringoram: access after crash without Recover")
	}
	if uint64(addr) >= c.posmap.Len() {
		return nil, fmt.Errorf("ringoram: access to addr %d outside [0,%d)", addr, c.posmap.Len())
	}
	if op == oram.OpWrite && len(data) != c.P.BlockBytes {
		return nil, fmt.Errorf("ringoram: write of %d bytes, block size %d", len(data), c.P.BlockBytes)
	}
	if err := oram.CheckSealVersions(c.verSeq, c.Tree); err != nil {
		return nil, fmt.Errorf("ringoram: %w", err)
	}
	// Persist mode: make room in the journal and the temp posmap first.
	if c.P.Persist {
		for c.liveJournal() >= c.P.JournalEntries || c.Temp.Full() {
			if err := c.evictScheduled(); err != nil {
				return nil, err
			}
			c.inc("ring.forced_evictions", 1)
		}
	}

	// --- ReadPath ---
	l := c.currentLeaf(addr)
	lNew := oram.Leaf(c.r.Uint64n(c.Tree.Leaves()))
	touched, err := c.readPath(addr, l)
	if err != nil {
		return nil, err
	}

	blk := c.Stash.Get(addr)
	if blk == nil {
		return nil, fmt.Errorf("ringoram: block %d not found on path %d nor in stash", addr, l)
	}
	prev := append([]byte(nil), blk.Data...)
	if op == oram.OpWrite {
		copy(blk.Data, data)
		blk.Dirty = true
	}
	blk.Leaf = lNew
	blk.PendingRemap = true
	blk.RemapSeq = c.Temp.Set(addr, lNew)

	// Crash point after the path read, before anything persists.
	if c.maybeCrash("read") {
		return nil, ErrCrashed
	}
	// Persist: the access batch — journal append + metadata updates —
	// commits atomically. Baseline: mutations already applied in place.
	if c.P.Persist {
		if err := c.commitAccess(addr, lNew, blk.Data, touched); err != nil {
			return nil, err
		}
	}

	c.accesses++
	c.inc("ring.accesses", 1)

	// --- Scheduled EvictPath every A accesses ---
	if c.accesses%uint64(c.P.A) == 0 {
		if err := c.evictScheduled(); err != nil {
			return nil, err
		}
	}

	// --- Early reshuffles: buckets that ran out of dummies ---
	for _, b := range touched {
		if c.buckets[b].count >= c.P.S {
			if err := c.reshuffle(b); err != nil {
				return nil, err
			}
			c.inc("ring.early_reshuffles", 1)
		}
	}
	if c.Stash.Overflowed() {
		return nil, fmt.Errorf("ringoram: %w (%d > %d)", oram.ErrStashOverflow, c.Stash.Len(), c.Stash.Capacity())
	}
	if c.maybeCrash("end") {
		return nil, ErrCrashed
	}
	return prev, nil
}

// readPath reads exactly one slot from every bucket on the path: the
// target's slot where present and valid, a fresh dummy elsewhere. The
// consumed slots are invalidated and counters bumped. In Persist mode
// the metadata mutations are deferred to the access batch (returned via
// the touched list); in baseline mode they apply immediately.
func (c *Controller) readPath(addr oram.Addr, l oram.Leaf) ([]uint64, error) {
	path := c.Tree.Path(l)
	touched := make([]uint64, 0, len(path))
	for _, bIdx := range path {
		b := &c.buckets[bIdx]
		slot := -1
		// The target's slot, if this bucket holds it (valid).
		for i, m := range b.meta {
			if m.valid && m.addr == addr {
				slot = i
				break
			}
		}
		if slot == -1 {
			// A valid dummy.
			for i, m := range b.meta {
				if m.valid && m.addr == oram.DummyAddr {
					slot = i
					break
				}
			}
		}
		if slot == -1 {
			// No dummy left: the bucket must be reshuffled before it can
			// serve another access. (EarlyReshuffle normally prevents
			// this; handle it defensively.)
			if err := c.reshuffle(bIdx); err != nil {
				return nil, err
			}
			c.inc("ring.emergency_reshuffles", 1)
			for i, m := range b.meta {
				if m.valid && m.addr == oram.DummyAddr {
					slot = i
					break
				}
			}
			if slot == -1 {
				return nil, fmt.Errorf("ringoram: bucket %d has no readable slot after reshuffle", bIdx)
			}
		}
		// Timed read of that one slot.
		c.Mem.ReadBlock(c.Mem.TreeBlockLocation(bIdx, slot%c.P.Z), 0)
		blkData, err := oram.OpenSlot(c.Engine, b.slots[slot])
		if err != nil {
			return nil, err
		}
		if blkData.Addr == addr && c.Stash.Get(addr) == nil {
			// Verify coherence with the working map before adopting.
			if blkData.Leaf == c.currentLeaf(addr) {
				c.Stash.Put(&oram.StashBlock{Addr: addr, Leaf: blkData.Leaf, Data: blkData.Data})
			}
		}
		// Consume the slot.
		b.meta[slot].valid = false
		b.count++
		touched = append(touched, bIdx)
	}
	return touched, nil
}

// reverseLexLeaf returns the g-th leaf in reverse-lexicographic order —
// the deterministic eviction schedule that balances bucket load.
func (c *Controller) reverseLexLeaf(g uint64) oram.Leaf {
	L := uint(c.Tree.L)
	rev := bits.Reverse64(g) >> (64 - L)
	return oram.Leaf(rev % c.Tree.Leaves())
}

// evictScheduled is Ring ORAM's scheduled write-back: pull every valid real
// block on the reverse-lexicographic path into the stash, then rewrite
// the whole path greedily (Z real slots + S fresh dummies per bucket).
// In Persist mode the rewrite plus the dirty PosMap entries plus journal
// retirements commit as one atomic batch.
func (c *Controller) evictScheduled() error {
	g := c.evictG
	c.evictG++
	l := c.reverseLexLeaf(g)
	path := c.Tree.Path(l)

	// Pull valid real blocks into the stash.
	for _, bIdx := range path {
		b := &c.buckets[bIdx]
		for i, m := range b.meta {
			if !m.valid || m.addr == oram.DummyAddr {
				continue
			}
			c.Mem.ReadBlock(c.Mem.TreeBlockLocation(bIdx, i%c.P.Z), 0)
			blk, err := oram.OpenSlot(c.Engine, b.slots[i])
			if err != nil {
				return err
			}
			if c.Stash.Get(blk.Addr) == nil && blk.Leaf == c.currentLeaf(blk.Addr) {
				c.Stash.Put(&oram.StashBlock{Addr: blk.Addr, Leaf: blk.Leaf, Data: blk.Data})
			}
			b.meta[i].valid = false // consumed into the stash
		}
	}

	// Greedy placement: pending blocks first (their metadata wants to
	// merge), then by depth.
	live := c.Stash.Live()
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.PendingRemap != b.PendingRemap {
			return a.PendingRemap
		}
		da := c.Tree.IntersectLevel(l, a.Leaf)
		db := c.Tree.IntersectLevel(l, b.Leaf)
		if da != db {
			return da > db
		}
		return a.Addr < b.Addr
	})
	plan := make([][]oram.Block, c.Tree.L+1)
	used := make([]int, c.Tree.L+1)
	var evicted []*oram.StashBlock
	for _, sb := range live {
		deepest := c.Tree.IntersectLevel(l, sb.Leaf)
		for k := deepest; k >= 0; k-- {
			if used[k] < c.P.Z {
				plan[k] = append(plan[k], oram.Block{Addr: sb.Addr, Leaf: sb.Leaf, Data: sb.Data})
				used[k]++
				evicted = append(evicted, sb)
				break
			}
		}
	}

	if c.maybeCrash("evict") {
		return ErrCrashed
	}
	if c.P.Persist {
		return c.commitEviction(l, path, plan, evicted)
	}
	// Baseline: rewrite in place, volatile everything else.
	for k, bIdx := range path {
		nb := c.freshBucket(plan[k])
		c.buckets[bIdx] = nb
		c.timeBucketWrite(bIdx)
	}
	for _, sb := range evicted {
		c.Stash.Remove(sb.Addr)
		sb.PendingRemap = false
		c.posmap.Set(sb.Addr, sb.Leaf)
		c.Temp.Delete(sb.Addr)
	}
	c.inc("ring.evictions", 1)
	return nil
}

// reshuffle rewrites one bucket: its valid real blocks stay, dummies are
// refreshed, the counter resets.
func (c *Controller) reshuffle(bIdx uint64) error {
	b := &c.buckets[bIdx]
	var keep []oram.Block
	for i, m := range b.meta {
		if !m.valid || m.addr == oram.DummyAddr {
			continue
		}
		c.Mem.ReadBlock(c.Mem.TreeBlockLocation(bIdx, i%c.P.Z), 0)
		blk, err := oram.OpenSlot(c.Engine, b.slots[i])
		if err != nil {
			return err
		}
		keep = append(keep, blk)
	}
	if c.P.Persist {
		return c.commitReshuffle(bIdx, keep)
	}
	c.buckets[bIdx] = c.freshBucket(keep)
	c.timeBucketWrite(bIdx)
	return nil
}

// timeBucketWrite schedules the Z+S slot writes of one bucket.
func (c *Controller) timeBucketWrite(bIdx uint64) {
	for i := 0; i < c.P.Z+c.P.S; i++ {
		c.Mem.WriteBlockPosted(c.Mem.TreeBlockLocation(bIdx, i%c.P.Z), 0, nil)
	}
}

func (c *Controller) maybeCrash(phase string) bool {
	if c.CrashAt == nil || c.crashed {
		return false
	}
	if !c.CrashAt(CrashPoint{Access: c.accesses, Phase: phase}) {
		return false
	}
	c.powerFail()
	return true
}
