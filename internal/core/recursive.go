package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/oram"
)

// recState carries the per-access wiring of the recursive schemes.
type recState struct {
	batch       *mem.Batch // open for Rcr-PS-ORAM, nil for Rcr-Baseline
	chainBlocks int
}

// setupRecursiveHooks wires each posmap-level controller's eviction
// writes into the memory controller. Called once, lazily, because the
// hooks close over the per-access recState.
func (c *Controller) setupRecursiveHooks(st *recState) {
	for i, lvl := range c.Rec.Levels {
		region := i + 1
		lvl := lvl
		lvl.OnSlotWrite = func(bucket uint64, z int, s oram.Slot, b *oram.StashBlock) {
			loc := c.Mem.RegionTreeLocation(region, bucket, z)
			img := lvl.Image
			if st.batch != nil {
				// Immediate apply: later steps of the same access (the
				// data load, a flush pass) must read coherent state;
				// the batch undoes it if the access never commits.
				st.batch.AddPosMapBlockApplied(loc, img.SetSlot(bucket, z, s))
			} else {
				c.now = maxCycle(c.now, c.Mem.WriteBlockPosted(loc, c.now, func() func() {
					return img.SetSlot(bucket, z, s)
				}))
			}
			st.chainBlocks++
		}
	}
	c.Rec.OnTopUpdate = func(idx oram.Addr, old, new oram.Leaf) {
		// The on-chip Top map is trusted SRAM; Rcr-PS-ORAM persists its
		// updates through the PosMap WPQ so recovery can rebuild the
		// chain root. durableTop tracks the NVM copy.
		if st.batch != nil {
			top := c.durableTop
			st.batch.AddPosMap(c.Mem.PosMapLocation(uint64(idx)), func() {
				top.Set(idx, new)
			})
		}
	}
	if c.Scheme == config.SchemeRcrPSORAM {
		c.Rec.PostAccess = func(level int, ctl *oram.Controller, addr oram.Addr, newLeaf oram.Leaf) error {
			return c.flushResident(ctl, addr, newLeaf)
		}
	}
}

// flushResident guarantees the accessed block left ctl's stash: when
// greedy placement failed, read the block's new path and evict again
// (the block's leaf equals that path, so it places at worst at the
// leaf). Needed because the parent level durably recorded the new leaf.
func (c *Controller) flushResident(ctl *oram.Controller, addr oram.Addr, newLeaf oram.Leaf) error {
	for try := 0; ctl.Stash.Get(addr) != nil; try++ {
		if try >= 3 {
			return fmt.Errorf("core: block %d refuses to leave the stash after %d flushes", addr, try)
		}
		if _, err := ctl.LoadPathWith(newLeaf, func(a oram.Addr) oram.Leaf { return ctl.PosMap.Lookup(a) }); err != nil {
			return err
		}
		plan, _ := ctl.PlanEviction(newLeaf, ctl.DefaultEvictionOrder(newLeaf))
		ctl.ApplyEviction(newLeaf, plan, nil)
		c.counters.Inc("psoram.rcr_flushes")
	}
	return nil
}

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
	st := &recState{}
	if c.Scheme == config.SchemeRcrPSORAM {
		st.batch = c.Mem.BeginBatch()
	}
	c.setupRecursiveHooks(st)
	defer func() {
		// Hooks must not outlive the access (they close over st).
		for _, lvl := range c.Rec.Levels {
			lvl.OnSlotWrite = nil
		}
		if st.batch != nil {
			st.batch.Abandon()
		}
	}()

	// Position chain: translate addr and install the fresh data leaf.
	lNew := c.ORAM.RandomLeaf()
	l, chainTr, err := c.Rec.Translate(addr, lNew)
	if err != nil {
		return Result{}, err
	}
	// Timing of the chain: each level's path was read and written.
	for i, leafI := range chainTr.LevelLeaves {
		// Translate walks top-down; LevelLeaves is appended in walk
		// order, so recover the level index.
		level := len(c.Rec.Levels) - 1 - i
		lvl := c.Rec.Levels[level]
		var done mem.Cycle
		for _, bucket := range lvl.Tree.Path(leafI) {
			if d := c.Mem.ReadBucket(c.Mem.RegionTreeLocation(level+1, bucket, 0), start); d > done {
				done = d
			}
		}
		if done > c.now {
			c.now = done
		}
	}
	if c.maybeCrash(2, -1) {
		return Result{}, ErrCrashed
	}

	// Keep the data controller's flat map coherent with the chain (it is
	// the on-chip working view; the chain is the durable truth).
	c.ORAM.PosMap.Set(addr, lNew)

	// Data path access.
	c.epoch++
	loaded, loadDone, err := c.loadPathTimed(l, addr, c.now)
	if err != nil {
		return Result{}, err
	}
	c.markOrigin(loaded)
	c.now = maxCycle(c.now, loadDone) + mem.Cycle(c.ORAM.Engine.DecryptLatency(len(loaded)))

	blk := c.ORAM.Stash.Get(addr)
	if blk == nil {
		return Result{}, fmt.Errorf("core: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	prev := append([]byte(nil), blk.Data...)
	if op == oram.OpWrite {
		copy(blk.Data, data)
		blk.Dirty = true
	}
	blk.Leaf = lNew

	if c.Scheme == config.SchemeRcrPSORAM {
		// Backup block (paper: Rcr-PS-ORAM "backs up the accessed target
		// data blocks every time"), and force-evict the target so the
		// durably recorded leaf always points at a resident copy. The
		// PendingRemap mark exempts the target from the must-return set
		// (its backup is its durable continuation) while giving it
		// eviction priority.
		blk.PendingRemap = true
		c.ORAM.Stash.PutBackup(&oram.StashBlock{
			Addr: addr, Leaf: lNew,
			Data:   append([]byte(nil), blk.Data...),
			Backup: true, BackupLeaf: l,
		})
		*c.hBackups++
	}
	if c.maybeCrash(4, -1) {
		return Result{}, ErrCrashed
	}

	// Evict the data path.
	plan := c.scratch.plan
	unplaced := c.ORAM.PlanEvictionInto(l, c.evictionOrder(l), plan, c.scratch.planUsed, c.scratch.unplaced)
	c.scratch.unplaced = unplaced
	if c.wpqPersistent() {
		for _, b := range unplaced {
			if b.Backup || (b.OriginEpoch == c.epoch && c.epoch != 0 && !b.PendingRemap) {
				return Result{}, fmt.Errorf("core: must-evict block %d did not fit path %d", b.Addr, l)
			}
		}
	}
	c.now += mem.Cycle(c.ORAM.Engine.EncryptLatency(c.ORAM.Tree.PathBlocks()))

	var evicted int
	if st.batch != nil {
		slots := c.planSlots(l, true)
		img := c.ORAM.Image
		for _, s := range slots {
			// Immediate apply with batch undo: a force-evict pass later
			// in this same access must read the path as written.
			st.batch.AddDataApplied(c.Mem.TreeBlockLocation(s.bucket, s.z),
				img.SetSlot(s.bucket, s.z, s.sealed))
			if s.block != nil {
				evicted++
			}
		}
		for _, s := range slots {
			if s.block == nil {
				continue
			}
			if s.block.Backup {
				c.ORAM.Stash.RemoveBackup(s.block)
			} else {
				c.ORAM.Stash.Remove(s.block.Addr)
			}
		}
		// Force-evict the data target too.
		if c.ORAM.Stash.Get(addr) != nil {
			if err := c.flushResidentData(addr, lNew, st); err != nil {
				return Result{}, err
			}
		}
		// Crash points while the WPQs fill, before the "end" signal:
		// the access-spanning batch is discarded whole.
		for i := range slots {
			if c.maybeCrash(5, i) {
				return Result{}, ErrCrashed
			}
		}
		done, err := st.batch.Commit(c.now)
		if err != nil {
			return Result{}, fmt.Errorf("core: recursive eviction batch: %w", err)
		}
		st.batch = nil
		c.now = done
		// Durable: the whole access committed; the target's value is
		// reachable through the durable chain.
		c.markDurable(addr, blk.Data)
	} else {
		// Rcr-Baseline: posted writes, no atomicity. Crash points between
		// slot writes model a power failure mid-write-back, losing whatever
		// still sits in the volatile buffer (same exposure as evictPosted).
		proceed := c.now
		slotIdx := 0
		crashedMid := false
		evicted = c.ORAM.ApplyEviction(l, plan, func(bucket uint64, z int, s oram.Slot, b *oram.StashBlock) {
			if crashedMid {
				return
			}
			img := c.ORAM.Image
			p := c.Mem.WriteBlockPosted(c.Mem.TreeBlockLocation(bucket, z), c.now, func() func() {
				return img.SetSlot(bucket, z, s)
			})
			if p > proceed {
				proceed = p
			}
			crashedMid = c.maybeCrash(5, slotIdx)
			slotIdx++
		})
		if crashedMid {
			return Result{}, ErrCrashed
		}
		c.now = proceed
	}
	if c.ORAM.Stash.Overflowed() {
		return Result{}, fmt.Errorf("core: %w (%d > %d)", oram.ErrStashOverflow, c.ORAM.Stash.Len(), c.ORAM.Stash.Capacity())
	}
	if c.maybeCrash(6, -1) {
		return Result{}, ErrCrashed
	}
	return Result{
		Value:         prev,
		Start:         start,
		End:           c.now,
		PathLeaf:      l,
		EvictedBlocks: evicted,
		ChainBlocks:   st.chainBlocks + chainTr.BlocksRead,
	}, nil
}

// flushResidentData force-evicts the data target onto its new path,
// staging the writes into the open batch.
func (c *Controller) flushResidentData(addr oram.Addr, newLeaf oram.Leaf, st *recState) error {
	for try := 0; c.ORAM.Stash.Get(addr) != nil; try++ {
		if try >= 3 {
			return fmt.Errorf("core: data block %d refuses to leave the stash after %d flushes", addr, try)
		}
		c.epoch++
		loaded, done, err := c.loadPathTimed(newLeaf, addr, c.now)
		if err != nil {
			return err
		}
		c.markOrigin(loaded)
		c.now = done
		c.scratch.unplaced = c.ORAM.PlanEvictionInto(newLeaf, c.evictionOrder(newLeaf), c.scratch.plan, c.scratch.planUsed, c.scratch.unplaced)
		slots := c.planSlots(newLeaf, true)
		img := c.ORAM.Image
		for _, s := range slots {
			st.batch.AddDataApplied(c.Mem.TreeBlockLocation(s.bucket, s.z),
				img.SetSlot(s.bucket, s.z, s.sealed))
			if s.block == nil {
				continue
			}
			if s.block.Backup {
				c.ORAM.Stash.RemoveBackup(s.block)
			} else {
				c.ORAM.Stash.Remove(s.block.Addr)
			}
		}
		c.counters.Inc("psoram.rcr_flushes")
	}
	return nil
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
				data, err := parent.PeekWith(pIdx, func(a oram.Addr) oram.Leaf { return parent.PosMap.Lookup(a) })
				if err != nil {
					c.counters.Inc("crash.unrecoverable_posmap_blocks")
					continue
				}
				leaf = unpackLeaf(data, uint64(idx)%k)
			}
			lvl.PosMap.Set(idx, leaf)
		}
	}
	// Data map from level 1 (or Top when degenerate).
	for addr := oram.Addr(0); uint64(addr) < c.ORAM.NumBlocks(); addr++ {
		var leaf oram.Leaf
		if len(c.Rec.Levels) == 0 {
			leaf = c.Rec.Top.Lookup(addr)
		} else {
			l1 := c.Rec.Levels[0]
			data, err := l1.PeekWith(oram.Addr(uint64(addr)/k), func(a oram.Addr) oram.Leaf { return l1.PosMap.Lookup(a) })
			if err != nil {
				c.counters.Inc("crash.unrecoverable_posmap_blocks")
				continue
			}
			leaf = unpackLeaf(data, uint64(addr)%k)
		}
		c.ORAM.PosMap.Set(addr, leaf)
	}
	return nil
}

func unpackLeaf(data []byte, off uint64) oram.Leaf {
	return oram.Leaf(uint32(data[off*4]) | uint32(data[off*4+1])<<8 |
		uint32(data[off*4+2])<<16 | uint32(data[off*4+3])<<24)
}
