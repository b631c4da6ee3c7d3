package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/oram"
)

// plannedSlot flattens an eviction plan entry for batch construction.
// The IVs and seal version are drawn at plan time, pinning the slot's
// ciphertext; the write carries the plaintext forward and the image
// overlay seals it at first observation.
type plannedSlot struct {
	bucket uint64
	z      int
	block  *oram.StashBlock // nil = dummy
	// bounce, on a dummy of the ordered eviction, is the block whose
	// fresh copy the slot hosts until the plan's own write of it (see
	// evictOrdered); leaf, ver and the IVs are then that copy's.
	bounce *oram.StashBlock
	leaf   oram.Leaf // target leaf captured at plan time
	ver    uint32
	iv1    uint64
	iv2    uint64
}

// content is what the write of s puts into its slot: the planned block
// or the bounced copy under the plan's leaf and version, else a dummy.
func (s *plannedSlot) content() oram.Block {
	b := s.block
	if b == nil {
		b = s.bounce
	}
	if b == nil {
		return oram.Block{Addr: oram.DummyAddr}
	}
	return oram.Block{Addr: b.Addr, Leaf: s.leaf, Ver: s.ver, Data: b.Data}
}

// writeTo is the image write of s, completing at cycle done. Issued at
// now, it is logged for a crash's rollback only when it completes later
// (see writeBack).
func (s *plannedSlot) writeTo(img *oram.Image, done, now mem.Cycle) {
	switch w := s.content(); {
	case done > now:
		img.PutLazyUndoable(s.bucket, s.z, s.iv1, s.iv2, w, uint64(done))
	case w.Dummy():
		img.PutLazyDummy(s.bucket, s.z, s.iv1, s.iv2)
	default:
		img.PutLazyBlock(s.bucket, s.z, s.iv1, s.iv2, w)
	}
}

// merges reports whether the write of s carries a pending remap of its
// block into the durable PosMap.
func (s *plannedSlot) merges() bool {
	return s.block != nil && !s.block.Backup && s.block.PendingRemap
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

// image is the image of the tree in region.
func (c *Controller) image(region int) *oram.Image {
	ctl, _ := c.tree(region)
	return ctl.Image
}

// planSlots lays out the eviction of the plan of the tree in region
// onto its path l (step 5-A): which block lands in which slot, under
// which IVs and version.
// Slot i of the path (root first, Z per bucket) is written under IVs
// base+2i+1 and base+2i+2, base being the tree's IV cursor on entry
// (kept in c.scratch.ivBase), and every real block takes the tree's next
// seal version in slot order — the streams that drawing a version and
// two IVs slot by slot produces, so every ciphertext is unchanged. No
// AES runs here: the image seals a slot when it is observed.
//
// With every set, the plan has an entry per slot of the path: the form
// for the consumers that write each dummy on its own, evictOrdered and
// writeBack. Otherwise it holds the occupied slots only
// (c.scratch.real, which the caller has filled from the data tree's
// plan), and the dummies reach the image as one PutLazyDummies per
// bucket. The returned slice is c.scratch.slots (valid until the next
// planSlots call).
func (c *Controller) planSlots(region int, l oram.Leaf, every bool) []plannedSlot {
	ctl, plan := c.tree(region)
	t := ctl.Tree
	c.scratch.path = t.PathInto(c.scratch.path[:0], l)
	flat := plan.flat
	which := c.scratch.real
	if every {
		which = c.scratch.every[:len(flat)]
	}
	if cap(c.scratch.slots) < len(flat) {
		c.scratch.slots = make([]plannedSlot, len(flat))
	}
	out := c.scratch.slots[:len(which)]
	base := ctl.DrawIVs(2 * len(flat))
	c.scratch.ivBase = base
	for n, i := range which {
		// Filled in place through the pointer: building a plannedSlot
		// as a local and appending would copy its 56 bytes per slot.
		ps := &out[n]
		b := flat[i]
		k := int(i) / t.Z
		ps.bucket, ps.z, ps.block, ps.bounce = c.scratch.path[k], int(i)-k*t.Z, b, nil
		ps.iv1, ps.iv2 = base+2*uint64(i)+1, base+2*uint64(i)+2
		ps.leaf, ps.ver = 0, 0
		if b != nil {
			ps.leaf, ps.ver = b.TargetLeaf(), ctl.NextVer()
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
			batch.AddPosMap(c.posMapLocation(bucket, i-k*z, plan[i]))
			staged = i + 1
		}
		batch.AddDataRun(loc, end-staged)
	}
}

// evictPersistent implements PS-ORAM eviction (§4.2.2) of the data plan
// onto path l: write the path, identify the dirty PosMap entries, push
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
	// One batch writes the occupied slots and every bucket's dummies at
	// once; the ordered fallback writes each slot on its own.
	slots := c.planSlots(0, l, !oneBatch)
	c.stageAdd(StageCrypto)
	if !oneBatch {
		if c.Merkle != nil {
			// Ordered multi-batch eviction cannot keep the hash tree and
			// the data atomic; construction should have prevented this.
			return 0, 0, fmt.Errorf("core: integrity eviction exceeds WPQs (%d data, %d posmap entries)", needData, needPos)
		}
		return c.evictOrdered(l, slots)
	}

	batch := c.Mem.BeginBatch()
	c.stagePath(batch, posmap)
	// Integrity: the new path-node hashes and the new root ride in the
	// same batch as the data — tree and root can never diverge. Like the
	// data entries they carry no mutation: the hashes are computed from
	// the written path once the batch has committed (hashPath).
	if c.Merkle != nil {
		for _, b := range c.scratch.path {
			batch.AddPosMapBlock(c.Mem.PosMapLocation((1 << 23) + b))
		}
		batch.AddPosMapBlock(c.Mem.PosMapLocation(1 << 24))
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
	for k, bucket := range c.scratch.path {
		c.ORAM.Image.PutLazyDummies(bucket, c.scratch.ivBase+2*uint64(k*t.Z))
	}
	c.applyCommitted(slots)
	if c.Merkle != nil {
		c.hashPath(l)
	}
	// The evicted stash blocks are dead (the overlay copied their
	// payloads), so they recycle.
	c.finishEvicted(slots)
	c.recycleEvicted()
	c.stageAdd(StageSeal)
	*c.hDirty += int64(len(dirty))
	return len(real), len(dirty), nil
}

// hashPath installs the new node hashes and root of the data path to l,
// which the committed batch has just written. Reading the path through
// Image.Slot here is what stageBatch's argument allows for the data:
// nothing observes the controller between Commit and this point, and an
// abandoned batch applied nothing. The reads seal the written slots,
// the only AES the write-back runs.
func (c *Controller) hashPath(l oram.Leaf) {
	rows := make([][]oram.Slot, len(c.scratch.path))
	for k, bucket := range c.scratch.path {
		rows[k] = c.bucketSlots(bucket)
	}
	c.Merkle.Apply(c.Merkle.ComputeUpdate(l, rows))
}

// posMapEntries is the PosMap WPQ demand of the write of s under the
// current scheme (the ordered evictor sizes its batches with it).
func (c *Controller) posMapEntries(s *plannedSlot) int {
	if s.merges() || c.Scheme == config.SchemeNaivePSORAM {
		return 1
	}
	return 0
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
		batch.AddData(c.Mem.TreeBlockLocation(s.bucket, s.z))
		if c.posMapEntries(s) != 0 {
			batch.AddPosMap(c.posMapLocation(s.bucket, s.z, s.block))
		}
		if s.block != nil {
			real++
		}
		if s.merges() {
			dirty++
		}
	}
	return real, dirty
}

// applyCommitted runs the functional mutations of a batch that has
// committed: each slot's write into the tree image — a deferred seal
// recorded in the overlay, which copies the payload (AES runs only if
// some reader later observes the slot) — and, for a block whose pending
// remap the batch carried, the merge of that remap into the durable
// PosMap.
func (c *Controller) applyCommitted(slots []plannedSlot) {
	for i := range slots {
		s := &slots[i]
		s.writeTo(c.ORAM.Image, c.now, c.now)
		if s.merges() {
			b := s.block
			c.durable.Put(b.Addr, b.Leaf)
			c.mirrorLeaf(b.Addr, b.Leaf)
			c.ORAM.PosMap.Put(b.Addr, b.Leaf)
			c.Temp.Delete(b.Addr)
		}
	}
}

// finishEvicted removes committed blocks from the stash, keeping them in
// c.scratch.evicted for the caller to recycle, and emits durability
// events for every value the committed batch made reachable from the
// durable PosMap (applyCommitted has merged every remap by now).
func (c *Controller) finishEvicted(slots []plannedSlot) {
	for i := range slots {
		b := slots[i].block
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
		c.scratch.evicted = append(c.scratch.evicted, b)
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
