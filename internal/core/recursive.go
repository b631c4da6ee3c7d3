package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/oram"
)

// walkChain is the position source of the recursive schemes: it
// resolves addr's current leaf through the recursive PosMap and records
// lNew as its next one, and the data path's load waits for it. It walks
// the PosMap trees top-down: at each one it accesses the block holding
// the child's entry, reading the child's current leaf and splicing in the
// child's next leaf — drawn up front from the child tree's own RNG, since
// the parent records it before the child's access runs. The chain's path
// reads are timed after the walk, so after its writes, all from the
// access's start (DESIGN.md §5.1, "Chain timing in the recursive
// schemes", says why). c.scratch.chainBlocks counts the PosMap blocks
// read and written. The data tree's flat map is the on-chip working view
// of the chain, the durable truth: it follows the chain once step 2 is
// past (c.follow).
func (c *Controller) walkChain(addr oram.Addr, lNew oram.Leaf) (l oram.Leaf, earliest mem.Cycle, err error) {
	rec := c.Rec
	n := len(rec.Levels)
	c.scratch.chainBlocks = 0
	if n == 0 {
		l = rec.Top.Lookup(addr)
		rec.Top.Put(addr, lNew)
		c.stageTopUpdate(addr, lNew)
		return l, c.now, nil
	}
	start := c.now
	k := uint64(rec.EntriesPerBlock)
	// idx[i] is the block of PosMap tree i+1 on addr's chain, next[i] the
	// leaf it moves to, paths[i] the leaf of the path read in it.
	ch := &c.scratch.chain
	idx, next, paths := ch.idx[:n], ch.next[:n], ch.paths[:n]
	cur := uint64(addr)
	for i := range idx {
		cur /= k
		idx[i] = oram.Addr(cur)
	}
	for i, lvl := range rec.Levels {
		next[i] = lvl.RandomLeaf()
	}
	for i := n - 1; i >= 0; i-- {
		lvl := rec.Levels[i]
		// The entry this tree's block holds: the data address's leaf, or
		// the leaf of the child tree's block.
		off, childNext := uint64(addr)%k, lNew
		if i > 0 {
			off, childNext = uint64(idx[i-1])%k, next[i-1]
		}
		if i == n-1 {
			// The top tree's own leaf lives in the on-chip Top map (aliased
			// to its flat PosMap).
			c.stageTopUpdate(idx[i], next[i])
		}
		paths[i] = lvl.PosMap.Lookup(idx[i])
		got, writes, err := c.accessLevel(i, idx[i], off, childNext, next[i])
		if err != nil {
			return 0, 0, fmt.Errorf("core: PosMap tree %d: %w", i+1, err)
		}
		c.scratch.chainBlocks += writes + lvl.Tree.PathBlocks()
		if i == 0 {
			l = got
		} else if want := rec.Levels[i-1].PosMap.Lookup(idx[i-1]); want != got {
			// got is the child's current leaf; the child's own PosMap is
			// authoritative in this simulation — verify coherence.
			return 0, 0, fmt.Errorf("core: recursive map incoherent at PosMap tree %d: packed %d, posmap %d", i, got, want)
		}
	}
	for i := n - 1; i >= 0; i-- {
		var done mem.Cycle
		c.scratch.path = rec.Levels[i].Tree.PathInto(c.scratch.path[:0], paths[i])
		for _, bucket := range c.scratch.path {
			done = max(done, c.Mem.ReadBucket(c.Mem.RegionTreeLocation(i+1, bucket, 0), start))
		}
		c.now = max(c.now, done)
	}
	return l, c.now, nil
}

// walkChainBatch is Rcr-PS-ORAM's position source: the chain walk into
// a batch that spans the entire access — every PosMap path, the data
// path, the backup block and the Top-map update — with the accessed block
// force-evicted at every level, so that a crash anywhere either keeps
// the whole access or discards it whole. The access's writes into the
// batch are logged in each tree's undo log from its mark on; evictBatch
// commits the batch, and abandonBatch takes it back if the access fails
// first.
func (c *Controller) walkChainBatch(addr oram.Addr, lNew oram.Leaf) (oram.Leaf, mem.Cycle, error) {
	for r := range c.scratch.marks {
		c.scratch.marks[r] = c.trees[r].Image.Mark()
	}
	c.scratch.batch = c.Mem.BeginBatch()
	c.scratch.target, c.scratch.targetLeaf = addr, lNew
	return c.walkChain(addr, lNew)
}

// evictBatch is Rcr-PS-ORAM's write-back: the data path goes into the
// access-spanning batch, and so does a force-eviction of the target, so
// that the durably recorded leaf always points at a resident copy; then
// the batch commits, and the access's Top-map update is durable.
func (c *Controller) evictBatch(l oram.Leaf) (int, int, error) {
	if err := c.planEviction(l, false); err != nil {
		return 0, 0, err
	}
	slots := c.planSlots(0, l, true)
	evicted, _ := c.writeBack(0, slots) // batched: no crash point
	if _, err := c.forceEvict(0, c.scratch.target, c.scratch.targetLeaf); err != nil {
		return 0, 0, err
	}
	// Crash points while the WPQs fill, before the "end" signal: the
	// access-spanning batch is discarded whole.
	for i := range slots {
		if c.maybeCrash(5, i) {
			return 0, 0, ErrCrashed
		}
	}
	done, err := c.scratch.batch.Commit(c.now)
	if err != nil {
		return 0, 0, fmt.Errorf("core: recursive eviction batch: %w", err)
	}
	c.scratch.batch = nil
	c.now = done
	// Durable: the whole access committed — its writes stand and its
	// Top-map update reaches durableTop.
	for r, mark := range c.scratch.marks {
		c.trees[r].Image.Release(mark, oram.NeverDone)
	}
	c.durableTop.Put(c.scratch.topIdx, c.scratch.topLeaf)
	c.recycleEvicted()
	return evicted, 0, nil
}

// abandonBatch discards an access-spanning batch the access left open by
// failing before its commit, and takes back every write logged into it.
func (c *Controller) abandonBatch() {
	if c.scratch.batch == nil {
		return
	}
	c.scratch.batch.Abandon()
	c.scratch.batch = nil
	for r, mark := range c.scratch.marks {
		c.trees[r].Image.Rollback(mark, uint64(c.now))
	}
}

// stageTopUpdate persists an update of the on-chip Top map: Rcr-PS-ORAM
// stages it into the access's batch so recovery can rebuild the chain
// root (durableTop tracks the NVM copy); Rcr-Baseline's Top updates are
// volatile. The chain walk stages one per access. The entry carries no
// mutation: evictBatch applies the update once the batch has committed,
// which nothing can tell from applying it at the commit (the argument of
// stageBatch).
func (c *Controller) stageTopUpdate(idx oram.Addr, leaf oram.Leaf) {
	if c.scratch.batch != nil {
		c.scratch.batch.AddPosMap(c.Mem.PosMapLocation(uint64(idx)))
		c.scratch.topIdx, c.scratch.topLeaf = idx, leaf
	}
}

// accessLevel is one PosMap tree's access of the chain walk: load the
// path of block idx of tree i+1, move the block to lNew, swap the
// entry at off for next (returning the entry it held), and write the
// path back; Rcr-PS-ORAM then force-evicts the block. It returns the
// entry and the number of slots written.
func (c *Controller) accessLevel(i int, idx oram.Addr, off uint64, next, lNew oram.Leaf) (got oram.Leaf, writes int, err error) {
	lvl := c.trees[i+1]
	l := lvl.PosMap.Lookup(idx)
	if err := c.loadLevelPath(lvl, l, idx); err != nil {
		return 0, 0, err
	}
	lvl.PosMap.Put(idx, lNew)
	blk := lvl.Stash.Get(idx)
	if blk == nil {
		return 0, 0, fmt.Errorf("core: block %d not found on path %d nor in stash (corrupt state)", idx, l)
	}
	got = oram.PackedLeaf(blk.Data, off)
	oram.PackLeaf(blk.Data, off, next)
	blk.Dirty = true
	blk.Leaf = lNew

	writes = c.writePath(i+1, l, c.greedyOrder(lvl, l))
	if err := stashOverflow(lvl.Stash); err != nil {
		return 0, 0, err
	}
	if c.scratch.batch != nil {
		// The parent durably recorded lNew: the block must not linger in
		// the stash.
		n, err := c.forceEvict(i+1, idx, lNew)
		if err != nil {
			return 0, 0, err
		}
		writes += n
	}
	return got, writes, nil
}

// loadLevelPath is the functional load of the path to l of PosMap tree
// lvl (walkChain times the chain's reads once the walk is done).
func (c *Controller) loadLevelPath(lvl *oram.Controller, l oram.Leaf, target oram.Addr) error {
	c.scratch.loaded = c.scratch.loaded[:0]
	c.scratch.path = lvl.Tree.PathInto(c.scratch.path[:0], l)
	for _, bucket := range c.scratch.path {
		if err := c.loadBucket(lvl, bucket, l, target); err != nil {
			return err
		}
	}
	return nil
}

// forceEvict makes sure block addr left the stash of the tree in region
// once the parent durably recorded leaf as its position: while it is
// still resident, the path to leaf is loaded and evicted again into the
// open batch. The block's leaf is that path's, so it places at worst at
// the leaf. It returns the number of slots written.
func (c *Controller) forceEvict(region int, addr oram.Addr, leaf oram.Leaf) (writes int, err error) {
	ctl := c.trees[region]
	for try := 0; ctl.Stash.Get(addr) != nil; try++ {
		if try >= 3 {
			return writes, fmt.Errorf("core: block %d refuses to leave the stash after %d flushes", addr, try)
		}
		var order []*oram.StashBlock
		if region == 0 {
			// Unlike an access's load, this one charges no decryption.
			_, done, err := c.loadPathTimed(leaf, addr, c.now)
			if err != nil {
				return writes, err
			}
			c.now = done
			order = c.evictionOrder(leaf)
		} else {
			if err := c.loadLevelPath(ctl, leaf, addr); err != nil {
				return writes, err
			}
			order = c.greedyOrder(ctl, leaf)
		}
		writes += c.writePath(region, leaf, order)
		c.counters.Inc("psoram.rcr_flushes")
	}
	return writes, nil
}

// writePath places the blocks of order onto path l of the tree in region
// and writes the path back, into the open batch or posted (a PosMap
// tree's or a batched write-back has no crash point). It returns the
// number of slots written.
func (c *Controller) writePath(region int, l oram.Leaf, order []*oram.StashBlock) int {
	ctl, plan := c.trees[region], c.plans[region]
	c.scratch.unplaced = ctl.PlanEvictionInto(l, order, plan.rows, plan.used, c.scratch.unplaced)
	slots := c.planSlots(region, l, true)
	c.writeBack(region, slots)
	return len(slots)
}

// reloadChain is the recursive schemes' recovery (§4.3), in place until
// a store's Contents holds their PosMap trees: the SRAM
// stashes are lost, the Top map is reloaded from its durable copy, and
// every PosMap tree's working PosMap (plus the data tree's working map)
// is re-derived by walking the chain stored in the PosMap trees' images
// — exactly the information a restarted ORAM controller has.
//
// A PosMap block it cannot reach is not an error: it is corruption,
// which the read-back surfaces as unreadable addresses (that is
// precisely what happens to Rcr-Baseline). The walk counts each entry it
// cannot re-derive and leaves it at its last value.
func (c *Controller) reloadChain() {
	for _, t := range c.trees {
		t.Stash.Reset()
	}
	*c.Rec.Top = *c.durableTop.Clone()
	k := oram.Addr(c.Rec.EntriesPerBlock)
	// Walk top-down, region n to 0: each tree's leaves come packed in the
	// tree above it, the top one's in the Top map (aliased to the data
	// tree's map when the recursion is degenerate).
	n := len(c.Rec.Levels)
	for r := n; r >= 0; r-- {
		ctl := c.trees[r]
		for idx := oram.Addr(0); uint64(idx) < ctl.NumBlocks(); idx++ {
			if r == n {
				ctl.PosMap.Put(idx, c.Rec.Top.Lookup(idx))
				continue
			}
			data, err := c.Rec.Levels[r].Peek(idx / k)
			if err != nil {
				c.counters.Inc("crash.unrecoverable_posmap_blocks")
				continue
			}
			ctl.PosMap.Put(idx, oram.PackedLeaf(data, uint64(idx%k)))
		}
	}
}
