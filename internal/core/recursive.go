package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/oram"
)

// accessRecursive implements Rcr-Baseline and Rcr-PS-ORAM: the position
// lookup walks the recursive PosMap (each level a real ORAM access whose
// path is written back to NVM every time), then the data path access
// proceeds as usual. Rcr-PS-ORAM additionally (a) wraps the entire
// access — every posmap path, the data path, the backup block, and the
// Top-map update — in one atomic WPQ batch, and (b) force-evicts the
// accessed block at every level, so a crash anywhere either keeps the
// whole access or discards it whole.
func (c *Controller) accessRecursive(op oram.Op, addr oram.Addr, data []byte) (Result, error) {
	start := c.now
	var batch *mem.Batch // open for Rcr-PS-ORAM, nil for Rcr-Baseline
	if c.Scheme == config.SchemeRcrPSORAM {
		// The access's writes into the batch are logged in each tree's
		// undo log from its mark on, and taken back if it never commits.
		for r := range c.scratch.marks {
			c.scratch.marks[r] = c.image(r).Mark()
		}
		batch = c.Mem.BeginBatch()
		defer func() {
			if batch != nil {
				batch.Abandon()
				for r, mark := range c.scratch.marks {
					c.image(r).Rollback(mark, uint64(c.now))
				}
			}
		}()
	}

	// Position chain: translate addr and install the fresh data leaf.
	lNew := c.ORAM.RandomLeaf()
	l, chainBlocks, err := c.walkChain(addr, lNew, batch)
	if err != nil {
		return Result{}, err
	}
	if c.maybeCrash(2, -1) {
		return Result{}, ErrCrashed
	}

	// Keep the data controller's flat map coherent with the chain (it is
	// the on-chip working view; the chain is the durable truth).
	c.ORAM.PosMap.Put(addr, lNew)

	// Data path access.
	c.epoch++
	blk, err := c.loadAndServe(op, addr, data, l, lNew, c.now)
	if err != nil {
		return Result{}, err
	}
	if batch != nil {
		// Backup block (paper: Rcr-PS-ORAM "backs up the accessed target
		// data blocks every time"), and force-evict the target so the
		// durably recorded leaf always points at a resident copy. The
		// PendingRemap mark exempts the target from the must-return set
		// (its backup is its durable continuation) while giving it
		// eviction priority.
		blk.PendingRemap = true
		bak := c.getStashBlock()
		bak.Addr, bak.Leaf = addr, lNew
		bak.Data = append(bak.Data, blk.Data...)
		bak.Backup, bak.BackupLeaf = true, l
		c.ORAM.Stash.PutBackup(bak)
		*c.hBackups++
	}
	if c.maybeCrash(4, -1) {
		return Result{}, ErrCrashed
	}

	// Evict the data path.
	var evicted int
	if batch == nil {
		// Rcr-Baseline: posted writes, no atomicity, the flat baselines'
		// eviction.
		if evicted, _, err = c.evictTimed(l); err != nil {
			return Result{}, err
		}
	} else {
		if err := c.planEviction(l, false); err != nil {
			return Result{}, err
		}
		slots := c.planSlots(0, l, true)
		evicted, _ = c.writeBack(0, slots, batch) // batched: no crash point
		// Force-evict the data target too.
		if _, err := c.forceEvict(0, addr, lNew, batch); err != nil {
			return Result{}, err
		}
		// Crash points while the WPQs fill, before the "end" signal:
		// the access-spanning batch is discarded whole.
		for i := range slots {
			if c.maybeCrash(5, i) {
				return Result{}, ErrCrashed
			}
		}
		done, err := batch.Commit(c.now)
		if err != nil {
			return Result{}, fmt.Errorf("core: recursive eviction batch: %w", err)
		}
		batch = nil
		c.now = done
		// Durable: the whole access committed — its writes stand and its
		// Top-map update reaches durableTop.
		for r, mark := range c.scratch.marks {
			c.image(r).Release(mark, oram.NeverDone)
		}
		c.durableTop.Put(c.scratch.topIdx, c.scratch.topLeaf)
		c.recycleEvicted()
	}
	if c.ORAM.Stash.Overflowed() {
		return Result{}, fmt.Errorf("core: %w (%d > %d)", oram.ErrStashOverflow, c.ORAM.Stash.Len(), c.ORAM.Stash.Capacity())
	}
	if c.maybeCrash(6, -1) {
		return Result{}, ErrCrashed
	}
	return Result{
		Value:         c.scratch.prev,
		Start:         start,
		End:           c.now,
		PathLeaf:      l,
		EvictedBlocks: evicted,
		ChainBlocks:   chainBlocks,
	}, nil
}

// walkChain resolves addr's current leaf through the recursive PosMap
// and records lNew as its next one. It walks the PosMap trees top-down:
// at each one it accesses the block holding the child's entry, reading
// the child's current leaf and splicing in the child's next leaf — drawn
// up front from the child tree's own RNG, since the parent records it
// before the child's access runs. Rcr-PS-ORAM stages the walk's writes
// and the Top-map update into batch and force-evicts every accessed
// block. The chain's path reads are timed after the walk, so after its
// writes, all from the access's start (DESIGN.md §5.1, "Chain timing in
// the recursive schemes", says why). chainBlocks counts the PosMap
// blocks read and written.
func (c *Controller) walkChain(addr oram.Addr, lNew oram.Leaf, batch *mem.Batch) (l oram.Leaf, chainBlocks int, err error) {
	rec := c.Rec
	n := len(rec.Levels)
	if n == 0 {
		l = rec.Top.Lookup(addr)
		rec.Top.Put(addr, lNew)
		c.stageTopUpdate(addr, lNew, batch)
		return l, 0, nil
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
			c.stageTopUpdate(idx[i], next[i], batch)
		}
		paths[i] = lvl.PosMap.Lookup(idx[i])
		got, writes, err := c.accessLevel(i, idx[i], off, childNext, next[i], batch)
		if err != nil {
			return 0, 0, fmt.Errorf("core: PosMap tree %d: %w", i+1, err)
		}
		chainBlocks += writes + lvl.Tree.PathBlocks()
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
			done = maxCycle(done, c.Mem.ReadBucket(c.Mem.RegionTreeLocation(i+1, bucket, 0), start))
		}
		c.now = maxCycle(c.now, done)
	}
	return l, chainBlocks, nil
}

// stageTopUpdate persists an update of the on-chip Top map: Rcr-PS-ORAM
// stages it into the access's batch so recovery can rebuild the chain
// root (durableTop tracks the NVM copy); Rcr-Baseline's Top updates are
// volatile. The chain walk stages one per access. The entry carries no
// mutation: accessRecursive applies the update once the batch has
// committed, which nothing can tell from applying it at the commit (the
// argument of stageBatch).
func (c *Controller) stageTopUpdate(idx oram.Addr, leaf oram.Leaf, batch *mem.Batch) {
	if batch != nil {
		batch.AddPosMap(c.Mem.PosMapLocation(uint64(idx)))
		c.scratch.topIdx, c.scratch.topLeaf = idx, leaf
	}
}

// accessLevel is one PosMap tree's access of the chain walk: load the
// path of block idx of tree i+1, move the block to lNew, swap the
// entry at off for next (returning the entry it held), and write the
// path back; Rcr-PS-ORAM then force-evicts the block. It returns the
// entry and the number of slots written.
func (c *Controller) accessLevel(i int, idx oram.Addr, off uint64, next, lNew oram.Leaf, batch *mem.Batch) (got oram.Leaf, writes int, err error) {
	lvl, plan := c.tree(i + 1)
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

	c.scratch.unplaced = lvl.PlanEvictionInto(l, c.greedyOrder(lvl, l), plan.rows, plan.used, c.scratch.unplaced)
	slots := c.planSlots(i+1, l, true)
	c.writeBack(i+1, slots, batch) // a PosMap tree's write-back has no crash point
	writes = len(slots)
	if lvl.Stash.Overflowed() {
		return 0, 0, fmt.Errorf("core: %w (%d > %d)", oram.ErrStashOverflow, lvl.Stash.Len(), lvl.Stash.Capacity())
	}
	if batch != nil {
		// The parent durably recorded lNew: the block must not linger in
		// the stash.
		n, err := c.forceEvict(i+1, idx, lNew, batch)
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
func (c *Controller) forceEvict(region int, addr oram.Addr, leaf oram.Leaf, batch *mem.Batch) (writes int, err error) {
	ctl, plan := c.tree(region)
	for try := 0; ctl.Stash.Get(addr) != nil; try++ {
		if try >= 3 {
			return writes, fmt.Errorf("core: block %d refuses to leave the stash after %d flushes", addr, try)
		}
		var order []*oram.StashBlock
		if region == 0 {
			c.epoch++
			loaded, done, err := c.loadPathTimed(leaf, addr, c.now)
			if err != nil {
				return writes, err
			}
			c.markOrigin(loaded)
			c.now = done
			order = c.evictionOrder(leaf)
		} else {
			if err := c.loadLevelPath(ctl, leaf, addr); err != nil {
				return writes, err
			}
			order = c.greedyOrder(ctl, leaf)
		}
		c.scratch.unplaced = ctl.PlanEvictionInto(leaf, order, plan.rows, plan.used, c.scratch.unplaced)
		slots := c.planSlots(region, leaf, true)
		c.writeBack(region, slots, batch) // batched: no crash point
		writes += len(slots)
		c.counters.Inc("psoram.rcr_flushes")
	}
	return writes, nil
}

func maxCycle(a, b mem.Cycle) mem.Cycle {
	if a > b {
		return a
	}
	return b
}

// recoverRecursive rebuilds the on-chip state of a recursive system from
// NVM after a crash: the Top map is reloaded from its durable copy, and
// every level's working PosMap (plus the data controller's working map)
// is re-derived by walking the chain stored in the posmap-tree images —
// exactly the information a restarted ORAM controller has.
//
// An unreachable posmap block is NOT an error here: it is corruption,
// which the consistency checker will surface as unreadable addresses
// (that is precisely what happens to Rcr-Baseline). The walk records
// what it can and leaves the rest at the last coherent value.
func (c *Controller) recoverRecursive() error {
	*c.Rec.Top = *c.durableTop.Clone()
	k := uint64(c.Rec.EntriesPerBlock)
	// Walk top-down: each level's leaves come packed in the level above.
	for i := len(c.Rec.Levels) - 1; i >= 0; i-- {
		lvl := c.Rec.Levels[i]
		for idx := oram.Addr(0); uint64(idx) < lvl.NumBlocks(); idx++ {
			var leaf oram.Leaf
			if i == len(c.Rec.Levels)-1 {
				leaf = c.Rec.Top.Lookup(idx)
			} else {
				parent := c.Rec.Levels[i+1]
				pIdx := oram.Addr(uint64(idx) / k)
				data, err := parent.Peek(pIdx)
				if err != nil {
					c.counters.Inc("crash.unrecoverable_posmap_blocks")
					continue
				}
				leaf = oram.PackedLeaf(data, uint64(idx)%k)
			}
			lvl.PosMap.Put(idx, leaf)
		}
	}
	// Data map from level 1 (or Top when degenerate).
	for addr := oram.Addr(0); uint64(addr) < c.ORAM.NumBlocks(); addr++ {
		var leaf oram.Leaf
		if len(c.Rec.Levels) == 0 {
			leaf = c.Rec.Top.Lookup(addr)
		} else {
			data, err := c.Rec.Levels[0].Peek(oram.Addr(uint64(addr) / k))
			if err != nil {
				c.counters.Inc("crash.unrecoverable_posmap_blocks")
				continue
			}
			leaf = oram.PackedLeaf(data, uint64(addr)%k)
		}
		c.ORAM.PosMap.Put(addr, leaf)
	}
	return nil
}
