package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/oram"
)

// plannedSlot flattens an eviction plan entry for batch construction.
// The IVs and seal version are drawn at plan time, pinning the slot's
// ciphertext; a lazy entry carries the plaintext forward and the image
// overlay seals it at first observation, any other holds its sealed
// bytes.
type plannedSlot struct {
	bucket uint64
	z      int
	block  *oram.StashBlock // nil = dummy
	leaf   oram.Leaf        // target leaf captured at plan time
	ver    uint32
	iv1    uint64
	iv2    uint64
	lazy   bool
	sealed oram.Slot
}

// planRows is one tree's eviction plan: L+1 rows of Z slots laid out
// root first in one flat array, slot i of the path at index i, so that
// the write-back's passes over it are one loop each; used is the
// per-level fill count PlanEvictionInto keeps.
type planRows struct {
	rows [][]*oram.StashBlock
	flat []*oram.StashBlock
	used []int
}

func newPlanRows(t oram.Tree) planRows {
	p := planRows{
		rows: make([][]*oram.StashBlock, t.L+1),
		flat: make([]*oram.StashBlock, t.PathBlocks()),
		used: make([]int, t.L+1),
	}
	for k := range p.rows {
		p.rows[k] = p.flat[k*t.Z : (k+1)*t.Z : (k+1)*t.Z]
	}
	return p
}

// tree returns the tree the engine keeps in memory region region — 0
// the data tree, i the i-th recursive PosMap tree — and its eviction
// plan.
func (c *Controller) tree(region int) (*oram.Controller, *planRows) {
	if region == 0 {
		return c.ORAM, &c.scratch.plan
	}
	return c.Rec.Levels[region-1], &c.levelPlans[region-1]
}

// planSlots lays out the eviction of the plan of the tree in region
// onto its path l (step 5-A): which block lands in which slot, under
// which IVs and version.
// Slot i of the path (root first, Z per bucket) is written under IVs
// base+2i+1 and base+2i+2, base being the tree's IV cursor on entry
// (kept in c.scratch.ivBase), and every real block takes the tree's next
// seal version in slot order — the streams that drawing a version and
// two IVs slot by slot produces, so every ciphertext is unchanged.
//
// Sealed, the plan has an entry per slot of the path, each sealed now
// into freelist buffers on the tree's engine. That is the form for the
// consumers that need a ciphertext per dummy: the integrity batch (it
// hashes whole sealed buckets), evictOrdered (bounce writes move sealed
// bytes between slots) and writeBack (posted writes and access-spanning
// batches store sealed bytes). Otherwise the plan holds the occupied
// slots only (c.scratch.real, which the caller has filled from the data
// tree's plan), deferred, and no AES runs: the dummies reach the image
// as one PutLazyDummies per bucket. The returned slice is
// c.scratch.slots (valid until the next planSlots call).
func (c *Controller) planSlots(region int, l oram.Leaf, sealed bool) []plannedSlot {
	ctl, plan := c.tree(region)
	t := ctl.Tree
	e := ctl.Engine
	c.scratch.path = t.PathInto(c.scratch.path[:0], l)
	flat := plan.flat
	which := c.scratch.real
	if sealed {
		which = c.scratch.every[:len(flat)]
	}
	if cap(c.scratch.slots) < len(flat) {
		c.scratch.slots = make([]plannedSlot, len(flat))
	}
	out := c.scratch.slots[:len(which)]
	base := ctl.DrawIVs(2 * len(flat))
	c.scratch.ivBase = base
	for n, i := range which {
		// Filled in place through the pointer: plannedSlot is large
		// enough that building it as a local and appending would copy
		// ~100B per slot (runtime.duffcopy on the eviction hot path).
		ps := &out[n]
		b := flat[i]
		k := int(i) / t.Z
		ps.bucket, ps.z, ps.block, ps.lazy = c.scratch.path[k], int(i)-k*t.Z, b, !sealed
		ps.iv1, ps.iv2 = base+2*uint64(i)+1, base+2*uint64(i)+2
		ps.leaf, ps.ver = 0, 0
		if b != nil {
			ps.leaf, ps.ver = b.TargetLeaf(), ctl.NextVer()
		}
		if !sealed {
			continue // a deferred entry's sealed field is stale and never read
		}
		hdr, data := c.getSealBuf()
		if b == nil {
			ps.sealed = oram.DummySlotIVs(e, c.Cfg.BlockBytes, ps.iv1, ps.iv2, hdr, data)
		} else {
			ps.sealed = oram.SealBlockIVs(e, oram.Block{
				Addr: b.Addr, Leaf: ps.leaf, Ver: ps.ver, Data: b.Data,
			}, ps.iv1, ps.iv2, hdr, data)
		}
	}
	return out
}

// occupiedSlots compacts the data tree's plan into the ascending list of its
// occupied slots and, within it, the list of those whose block carries a
// pending remap into the durable PosMap (both in scratch). Which slots
// are occupied is random and four in five are not, so a pass that tests
// every slot of the plan pays a mispredicted branch at most of the
// occupied ones; the loop here stores unconditionally, has no such
// branch, and lets every later pass of the write-back walk the short
// lists instead. Nothing is drawn: the choice between one batch and the
// ordered fallback is made from these lists before the version stream
// moves.
func (c *Controller) occupiedSlots() (real, dirty []int32) {
	plan := c.scratch.plan.flat
	real = c.scratch.real[:len(plan)]
	n := 0
	for i, b := range plan {
		real[n] = int32(i)
		if b != nil {
			n++
		}
	}
	real = real[:n]
	dirty = c.scratch.dirty[:0]
	for _, i := range real {
		if b := plan[i]; !b.Backup && b.PendingRemap {
			dirty = append(dirty, i)
		}
	}
	c.scratch.real, c.scratch.dirty = real, dirty
	return real, dirty
}

// stagePath stages the write-back of the whole path into an open batch:
// every slot's data entry, in slot order, and behind it its PosMap entry
// if it is one of posmap (ascending). A bucket's Z data entries share a
// location, so they go in as runs cut at the PosMap entries. The entries
// carry no functional mutation (see stageBatch).
func (c *Controller) stagePath(batch *mem.Batch, posmap []int32) {
	z := c.ORAM.Tree.Z
	plan := c.scratch.plan.flat
	next := 0
	for k, bucket := range c.scratch.path {
		loc := c.Mem.TreeBlockLocation(bucket, 0)
		staged, end := k*z, (k+1)*z
		for ; next < len(posmap) && int(posmap[next]) < end; next++ {
			i := int(posmap[next])
			batch.AddDataRun(loc, i+1-staged)
			batch.AddPosMap(c.posMapLocation(bucket, i-k*z, plan[i]), nil)
			staged = i + 1
		}
		batch.AddDataRun(loc, end-staged)
	}
}

// evictPersistent implements PS-ORAM eviction (§4.2.2) of the data plan
// onto path l: seal the path, identify the dirty PosMap entries, push
// both into the WPQs between the drainer's start/end signals, and flush.
// Naïve-PS-ORAM differs only in flushing a PosMap entry for every slot on
// the path instead of just the dirty ones.
//
// On success the controller's durable state advanced atomically; dirty
// temporary-PosMap entries of evicted blocks are merged into the durable
// PosMap and dropped from the temporary one.
func (c *Controller) evictPersistent(l oram.Leaf) (int, int, error) {
	t := c.ORAM.Tree
	real, dirty := c.occupiedSlots()
	// posmap lists the slots whose write puts an entry into the PosMap
	// WPQ behind its data entry.
	posmap := dirty
	if c.Scheme == config.SchemeNaivePSORAM {
		posmap = c.scratch.every
	}
	// If one atomic batch cannot fit the WPQs, fall back to the ordered
	// multi-batch eviction for limited persistence domains (§4.2.3).
	needData, needPos := t.PathBlocks(), len(posmap)
	if c.Merkle != nil {
		needPos += t.Levels() + 1 // hash entries + root
	}
	oneBatch := needData <= c.Cfg.DataWPQEntries && needPos <= c.Cfg.PosMapWPQEntries
	// With the image's lazy-seal overlay armed, the single-batch path
	// commits plaintext descriptors of the real blocks and defers the AES
	// entirely; every other configuration (integrity, ordered fallback)
	// needs the sealed bytes of every slot now.
	lazySeal := oneBatch && c.ORAM.Image.LazySeal() && c.Merkle == nil
	slots := c.planSlots(0, l, !lazySeal)
	c.stageAdd(StageCrypto)
	if !oneBatch {
		if c.Merkle != nil {
			// Ordered multi-batch eviction cannot keep the hash tree and
			// the data atomic; construction should have prevented this.
			return 0, 0, fmt.Errorf("core: integrity eviction exceeds WPQs (%d data, %d posmap entries)", needData, needPos)
		}
		return c.evictOrdered(l, slots)
	}

	// Single-batch path: overwritten image slots and evicted stash blocks
	// are dead once the batch commits, so their buffers recycle (bounce
	// writes in evictOrdered alias sealed buffers across slots; that path
	// sets recycle=false). The Merkle tree re-reads image slots while
	// hashing, so integrity runs keep recycling off out of caution. Under
	// lazy seal no seal buffers were drawn, and stale store buffers may
	// alias overlay memo buffers — only stash blocks recycle there (the
	// overlay copied their payloads).
	c.recycle = c.Merkle == nil
	batch := c.Mem.BeginBatch()
	c.stagePath(batch, posmap)
	// Integrity: the new path-node hashes and the new root ride in the
	// same batch as the data — tree and root can never diverge.
	if c.Merkle != nil {
		newSlots := make([][]oram.Slot, t.L+1)
		for k := 0; k <= t.L; k++ {
			row := make([]oram.Slot, t.Z)
			for z := 0; z < t.Z; z++ {
				row[z] = slots[k*t.Z+z].sealed
			}
			newSlots[k] = row
		}
		up := c.Merkle.ComputeUpdate(l, newSlots)
		for _, b := range up.Buckets {
			batch.AddPosMapBlock(c.Mem.PosMapLocation((1<<23)+b), nil)
		}
		mt := c.Merkle
		batch.AddPosMapBlock(c.Mem.PosMapLocation(1<<24), func() { mt.Apply(up) })
		c.counters.Inc("integrity.root_updates")
	}
	// Crash points while the WPQs fill, one per slot written, before the
	// drainer's "end" signal: the whole batch is discarded (step 5-B/5-C
	// of §4.2.2 — "the original data blocks on the write-back path still
	// exist and will not be overwritten").
	if c.CrashAt != nil {
		for i := 0; i < needData; i++ {
			if c.maybeCrash(5, i) {
				batch.Abandon()
				return 0, 0, ErrCrashed
			}
		}
	}
	c.stageAdd(StageEvict)
	done, err := batch.Commit(c.now)
	if err != nil {
		return 0, 0, fmt.Errorf("core: eviction batch: %w", err)
	}
	c.now = done
	if lazySeal {
		for k, bucket := range c.scratch.path {
			c.ORAM.Image.PutLazyDummies(bucket, c.scratch.ivBase+2*uint64(k*t.Z))
		}
	}
	c.applyCommitted(slots)
	c.finishEvicted(slots)
	c.stageAdd(StageSeal)
	*c.hDirty += int64(len(dirty))
	return len(real), len(dirty), nil
}

// posMapEntriesFor counts the PosMap WPQ demand of a slot set under the
// current scheme (the ordered evictor sizes its batches with it).
func (c *Controller) posMapEntriesFor(slots []plannedSlot) int {
	if c.Scheme == config.SchemeNaivePSORAM {
		return len(slots)
	}
	n := 0
	for _, s := range slots {
		if s.block != nil && !s.block.Backup && s.block.PendingRemap {
			n++
		}
	}
	return n
}

// posMapLocation names the PosMap entry that the write of b (nil =
// dummy) into (bucket, z) rewrites: the block's own, or for a dummy or a
// backup — which Naïve-PS-ORAM, rewriting an entry per path slot
// regardless, is alone in asking about — a dummy entry. Functionally a
// no-op there; the cost is the point.
func (c *Controller) posMapLocation(bucket uint64, z int, b *oram.StashBlock) mem.Location {
	if b != nil && !b.Backup {
		return c.Mem.PosMapLocation(uint64(b.Addr))
	}
	return c.Mem.PosMapLocation(bucket*uint64(c.Cfg.Z) + uint64(z))
}

// stageBatch stages the data and PosMap entries of the given slots into
// an open batch. The entries carry no functional mutation: on the flat
// WPQ schemes nothing can observe the controller between Commit
// returning and applyCommitted running, a committed batch is never
// undone, and an abandoned one never applied anything — so the applies
// run after Commit, and under the untimed model a batch is a pair of
// counters. Returns (#real blocks, #posmap merges staged).
func (c *Controller) stageBatch(batch *mem.Batch, slots []plannedSlot) (int, int) {
	real, dirty := 0, 0
	for i := range slots {
		s := &slots[i]
		batch.AddData(c.Mem.TreeBlockLocation(s.bucket, s.z), nil)
		merges := s.block != nil && !s.block.Backup && s.block.PendingRemap
		if merges || c.Scheme == config.SchemeNaivePSORAM {
			batch.AddPosMap(c.posMapLocation(s.bucket, s.z, s.block), nil)
		}
		if s.block != nil {
			real++
		}
		if merges {
			dirty++
		}
	}
	return real, dirty
}

// applyCommitted runs the functional mutations of a batch that has
// committed: each slot's write into the tree image — a deferred seal
// recorded in the overlay (which copies the payload, so the stash block
// recycles as usual; AES runs only if some reader later observes the
// slot), or sealed bytes stored — and, for a block whose pending remap
// the batch carried, the merge of that remap into the durable PosMap.
func (c *Controller) applyCommitted(slots []plannedSlot) {
	img := c.ORAM.Image
	for i := range slots {
		s := &slots[i]
		b := s.block
		if s.lazy {
			img.PutLazyBlock(s.bucket, s.z, s.iv1, s.iv2, oram.Block{
				Addr: b.Addr, Leaf: s.leaf, Ver: s.ver, Data: b.Data,
			})
		} else if old := img.PutSlot(s.bucket, s.z, s.sealed); c.recycle {
			c.putSealBuf(old)
		}
		if b != nil && !b.Backup && b.PendingRemap {
			c.durable.Put(b.Addr, b.Leaf)
			c.mirrorLeaf(b.Addr, b.Leaf)
			c.ORAM.PosMap.Put(b.Addr, b.Leaf)
			c.Temp.Delete(b.Addr)
		}
	}
}

// finishEvicted removes committed blocks from the stash and emits
// durability events for every value the committed batch made reachable
// from the durable PosMap (applyCommitted has merged every remap by
// now). On the recycling path the removed blocks return to the freelist
// (their only remaining reference is the plan scratch, which the next
// access overwrites).
func (c *Controller) finishEvicted(slots []plannedSlot) {
	for i := range slots {
		b := slots[i].block // by index: a plannedSlot is ~120 bytes to copy
		if b == nil {
			continue
		}
		if b.Backup {
			c.ORAM.Stash.RemoveBackup(b)
		} else {
			c.ORAM.Stash.Remove(b.Addr)
			b.PendingRemap = false
		}
		// A copy is durable-reachable iff the durable PosMap points at
		// the leaf it was sealed under: for a backup, while the map still
		// names its path; for a live block, when its entry merged in this
		// batch or it never had a pending remap.
		if c.OnDurable != nil && c.durable.Lookup(b.Addr) == b.TargetLeaf() {
			c.markDurable(b.Addr, b.Data)
		}
		if c.recycle {
			c.putStashBlock(b)
		}
	}
}

// drainOldestPending performs a background eviction access on the oldest
// pending block's current path so its temporary-PosMap entry can merge.
// Used when the temporary PosMap runs full (§4.2.3: C_TPos is sized for
// the worst case; the drain is the overflow valve).
func (c *Controller) drainOldestPending() error {
	addr, ok := c.Temp.Oldest()
	if !ok {
		return nil
	}
	l := c.currentLeaf(addr)
	c.epoch++
	loaded, loadDone, err := c.loadPathTimed(l, addr, c.now)
	if err != nil {
		return err
	}
	c.markOrigin(loaded)
	c.now = maxCycle(c.now, loadDone) + mem.Cycle(c.ORAM.Engine.DecryptLatency(len(loaded)))
	if _, _, err := c.evictTimed(l); err != nil {
		return err
	}
	if _, still := c.Temp.Lookup(addr); still {
		return fmt.Errorf("core: drain access did not merge pending entry for %d", addr)
	}
	c.counters.Inc("psoram.temp_drains")
	return nil
}
