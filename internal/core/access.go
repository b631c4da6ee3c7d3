package core

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/oram"
)

// Wall-time stage indices for StageNanos: where an access's real time
// goes, as opposed to the simulated NVM cycles the timing model tracks.
const (
	StageLoad    = 0 // path fetch + header/payload decode
	StageCrypto  = 1 // eviction plan's IV and version draws (sealing waits for an observer)
	StageEvict   = 2 // eviction planning + batch staging
	StageSeal    = 3 // batch commit + write-back bookkeeping
	StagePersist = 4 // durable persist barrier (fsync; enqueue cost under group commit)
	NumStages    = 5
)

// StageNames labels StageNanos indices for display layers.
var StageNames = [NumStages]string{"load", "crypto", "evict", "seal", "persist"}

// StageNanos returns cumulative wall nanoseconds per protocol stage.
// Serving layers difference consecutive snapshots to build per-access
// stage histograms.
func (c *Controller) StageNanos() [NumStages]int64 { return c.stageNanos }

// stageEpoch anchors the stage clock: time.Since on a Time that carries
// a monotonic reading reads the monotonic clock alone, where time.Now
// reads the wall clock as well — and a stage boundary wants only a
// difference.
var stageEpoch = time.Now()

// stageMark/stageAdd maintain a single cursor (nanoseconds since
// stageEpoch) across the stage boundaries of one access: each stageAdd
// charges the time since the previous mark (or add) to one stage and
// advances the cursor, so a chain of adjacent stages costs one clock
// read per boundary instead of a start/stop pair per stage.
func (c *Controller) stageMark() { c.tMark = int64(time.Since(stageEpoch)) }

func (c *Controller) stageAdd(stage int) {
	now := int64(time.Since(stageEpoch))
	c.stageNanos[stage] += now - c.tMark
	c.tMark = now
}

// Result reports what one access did, for the timing and traffic layers.
//
// Value aliases a controller-owned buffer that the next Access on the
// same controller overwrites: consume or copy it before the next call.
type Result struct {
	Value      []byte    // value read (OpRead) or previous value (OpWrite)
	Start, End mem.Cycle // access latency window in core cycles
	PathLeaf   oram.Leaf
	// DirtyEntries is the number of PosMap entries persisted this access.
	DirtyEntries int
	// EvictedBlocks is the number of real blocks, backups included, that
	// the write-back placed on the path. A backup elided because its
	// block merged in the same batch still counts: its slot's WPQ entry
	// was written, holding a dummy.
	EvictedBlocks int
	// ChainBlocks is the recursive PosMap path work (Rcr-* schemes).
	ChainBlocks int
}

// Access performs one ORAM access under the controller's scheme. The
// returned error is ErrCrashed when the injected crash fired; the caller
// then owns calling Recover and (if desired) retrying the access.
func (c *Controller) Access(op oram.Op, addr oram.Addr, data []byte) (Result, error) {
	if c.closed {
		return Result{}, errClosed
	}
	if c.crashed {
		return Result{}, fmt.Errorf("core: access after crash without Recover")
	}
	if uint64(addr) >= c.ORAM.NumBlocks() {
		return Result{}, fmt.Errorf("core: access to addr %d outside [0,%d)", addr, c.ORAM.NumBlocks())
	}
	if op == oram.OpWrite && len(data) != c.Cfg.BlockBytes {
		return Result{}, fmt.Errorf("core: write of %d bytes, block size %d", len(data), c.Cfg.BlockBytes)
	}
	if err := c.checkSealVersions(); err != nil {
		return Result{}, err
	}
	res, err := c.access(op, addr, data)
	if err != nil {
		c.abandonBatch()
		return res, err
	}
	// Durable backend: commit this access's mutations — with one persist
	// barrier per access by default, or into the open commit group under
	// GroupCommit — so the on-disk state only transitions between access
	// boundaries. An interrupted access never reaches this point and
	// leaves the previous boundary committed.
	if c.storage != nil {
		c.stageMark()
		perr := c.commitDurable()
		c.stageAdd(StagePersist)
		if perr != nil {
			return res, perr
		}
	}
	c.accessN++
	*c.hAccesses++
	return res, nil
}

// checkSealVersions fails the access closed, before it mutates anything,
// when a seal-version cursor it may draw from — the data tree's, or a
// recursive PosMap tree's — is about to wrap.
func (c *Controller) checkSealVersions() error {
	for r, t := range c.trees {
		if err := t.CheckSealVersions(); err != nil {
			if r > 0 {
				err = fmt.Errorf("PosMap tree %d: %w", r, err)
			}
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// access runs steps 1-6 of the protocol (§4.2.1) for every scheme. The
// two things a scheme varies are bound once, by newController from its
// Policy: c.lookup, the position source step 2 reads and remaps a
// block's leaf through, and c.evict, step 5's write-back.
func (c *Controller) access(op oram.Op, addr oram.Addr, data []byte) (Result, error) {
	start := c.now

	// -- Step 2: draw the new leaf; the position source returns the
	// current one, records the new one, and says when the data path's
	// load may issue.
	lNew := c.ORAM.RandomLeaf()
	l, earliest, err := c.lookup(addr, lNew)
	if err != nil {
		return Result{}, err
	}
	if c.maybeCrash(2, -1) {
		return Result{}, ErrCrashed
	}
	if c.follow != nil {
		c.follow(addr, lNew)
	}

	// -- Steps 1 and 3: load path l, and serve the request from the stash
	// (a stash hit only means the value is served from the stash copy;
	// the path access proceeds either way). The block takes its new leaf.
	if err := c.loadDataPath(l, addr, earliest); err != nil {
		return Result{}, err
	}
	blk := c.ORAM.Stash.Get(addr)
	if blk == nil {
		return Result{}, fmt.Errorf("core: block %d not found on path %d nor in stash (corrupt state)", addr, l)
	}
	c.scratch.prev = append(c.scratch.prev[:0], blk.Data...)
	if op == oram.OpWrite {
		copy(blk.Data, data)
		blk.Dirty = true
	}
	blk.Leaf = lNew

	// -- Step 4: update stash and back up the data block. From here the
	// stash copy carries the new leaf, so the remap is no longer
	// cancellable (eADR's drain now preserves stash + map coherently).
	c.inflight.active = false
	if c.policy.WPQAtomic() {
		// The backup (§4.2.1; Rcr-PS-ORAM "backs up the accessed target
		// data blocks every time") replaces the target's just-consumed
		// copy. The pending mark exempts the target from the must-return
		// set while giving it eviction priority.
		blk.PendingRemap, blk.RemapSeq = true, c.scratch.remapSeq
		c.putBackup(blk, durableCopy{leaf: l, bucket: blk.OriginBucket, slot: blk.OriginSlot}, blk.OriginEpoch == c.epoch)
		*c.hBackups++
	}
	if c.maybeCrash(4, -1) {
		return Result{}, ErrCrashed
	}

	// -- Step 5: evict path l.
	evicted, dirty, err := c.evict(l)
	if err != nil {
		return Result{}, err
	}
	if err := stashOverflow(c.ORAM.Stash); err != nil {
		return Result{}, err
	}
	if c.maybeCrash(6, -1) {
		return Result{}, ErrCrashed
	}
	return Result{
		Value:         c.scratch.prev,
		Start:         start,
		End:           c.now,
		PathLeaf:      l,
		DirtyEntries:  dirty,
		EvictedBlocks: evicted,
		ChainBlocks:   c.scratch.chainBlocks,
	}, nil
}

// putBackup adds a backup of live stash block b to the stash: b's value
// under its new leaf, sealed under cp.leaf, the leaf the durable PosMap
// still names, so that it is b's durable continuation until b's pending
// remap merges. With inPlace the backup replaces the copy at cp's slot
// of this access's path and takes that very slot (planIdentity), which
// keeps the ordered eviction cycle-free. It reaches the image only while
// it can be that continuation: a one-batch write-back that merges b's
// remap drops it unwritten (elideDeadBackups).
func (c *Controller) putBackup(b *oram.StashBlock, cp durableCopy, inPlace bool) {
	bak := c.getStashBlock()
	bak.Addr, bak.Leaf = b.Addr, b.Leaf
	bak.Data = append(bak.Data, b.Data...)
	bak.Backup, bak.BackupLeaf = true, cp.leaf
	if inPlace {
		bak.OriginEpoch, bak.OriginBucket, bak.OriginSlot = c.epoch, cp.bucket, cp.slot
	}
	c.ORAM.Stash.PutBackup(bak)
}

// stashOverflow is the error of a stash a write-back left over its
// capacity, else nil.
func stashOverflow(s *oram.Stash) error {
	if s.Overflowed() {
		return fmt.Errorf("core: %w (%d > %d)", oram.ErrStashOverflow, s.Len(), s.Capacity())
	}
	return nil
}

// lookupTemp is PS-ORAM's position source (§4.1): the fresh leaf goes to
// the temporary PosMap, and the durable PosMap is untouched until the
// block's eviction commits. Before it remaps an address the map does not
// hold yet, it makes room by draining the oldest pending block with a
// background eviction access (§4.2.3 discussion).
func (c *Controller) lookupTemp(addr oram.Addr, lNew oram.Leaf) (oram.Leaf, mem.Cycle, error) {
	start := c.now
	if _, pending := c.Temp.Lookup(addr); !pending {
		for c.Temp.Full() {
			if err := c.drainOldestPending(); err != nil {
				return 0, 0, err
			}
		}
	}
	l := c.currentLeaf(addr)
	c.scratch.remapSeq = c.Temp.Set(addr, lNew)
	return l, start, nil
}

// lookupWriteThrough is FullNVM's position source: the on-chip PosMap is
// NVM, so the update is durable the moment it is written (and that is
// exactly the atomicity bug: the paper's Case 1b).
func (c *Controller) lookupWriteThrough(addr oram.Addr, lNew oram.Leaf) (oram.Leaf, mem.Cycle, error) {
	start := c.now
	l := c.ORAM.PosMap.Lookup(addr)
	c.ORAM.PosMap.Put(addr, lNew)
	c.setDurable(addr, lNew)
	c.timeOnChipNVM(nvm.Read) // lookup
	c.timeOnChipNVM(nvm.Write)
	return l, start, nil
}

// lookupInFlight is the position source of Baseline and eADR-ORAM: a
// volatile working map, whose remap stays cancellable until step 4
// (eADR's power-fail drain undoes it).
func (c *Controller) lookupInFlight(addr oram.Addr, lNew oram.Leaf) (oram.Leaf, mem.Cycle, error) {
	l := c.ORAM.PosMap.Lookup(addr)
	c.ORAM.PosMap.Put(addr, lNew)
	c.inflight.active, c.inflight.addr, c.inflight.oldLeaf = true, addr, l
	return l, c.now, nil
}

// loadDataPath is the data path's step 3, for an access and for PS-ORAM's
// drain alike: load path l (no earlier than earliest) and charge its
// decryption.
func (c *Controller) loadDataPath(l oram.Leaf, target oram.Addr, earliest mem.Cycle) error {
	c.stageMark()
	n, loadDone, err := c.loadPathTimed(l, target, earliest)
	c.stageAdd(StageLoad)
	if err != nil {
		return err
	}
	c.now = max(c.now, loadDone) + mem.Cycle(c.ORAM.Engine.DecryptLatency(n))
	return nil
}

// loadPathTimed reads the data path to l both functionally (into the
// stash) and on the device model, as a new epoch: the blocks it brings in
// are tagged with it, so the evictor knows which blocks MUST return to
// this path. target is the in-flight address whose header still carries
// the pre-remap leaf (relevant to FullNVM, which remaps before the load).
// Crash points fire after each bucket. It returns the number of blocks
// loaded and the cycle the path's reads complete.
func (c *Controller) loadPathTimed(l oram.Leaf, target oram.Addr, earliest mem.Cycle) (int, mem.Cycle, error) {
	c.epoch++
	c.endangered = c.endangered[:0]
	c.scratch.path = c.ORAM.Tree.PathInto(c.scratch.path[:0], l)
	path := c.scratch.path
	// Start the path's cache misses before the walk below consumes them.
	c.gathered += c.ORAM.Image.Gather(path, c.ORAM.PosMap)
	// Timing: all Z slots of each bucket, buckets issue in parallel
	// across banks/channels.
	var done mem.Cycle
	c.scratch.loaded = c.scratch.loaded[:0]
	for i, bucket := range path {
		if d := c.Mem.ReadBucket(c.Mem.TreeBlockLocation(bucket, 0), earliest); d > done {
			done = d
		}
		// Functional load of this bucket.
		before := len(c.scratch.loaded)
		if err := c.loadBucket(c.ORAM, bucket, l, target); err != nil {
			return 0, 0, err
		}
		if c.onchipNVM != nil {
			// FullNVM: each fetched block is written into the NVM stash.
			for range c.scratch.loaded[before:] {
				c.timeOnChipNVM(nvm.Write)
			}
		}
		if c.maybeCrash(3, i) {
			return 0, 0, ErrCrashed
		}
	}
	for _, b := range c.scratch.loaded {
		b.OriginEpoch = c.epoch
	}
	return len(c.scratch.loaded), done, nil
}

// loadBucket is the functional half of loading one bucket of the path to
// l of tree ctl — the data tree or a recursive PosMap tree. A bucket the
// overlay holds in its record form names its real slots and only those
// are visited; any other bucket is walked slot by slot.
func (c *Controller) loadBucket(ctl *oram.Controller, bucket uint64, l oram.Leaf, target oram.Addr) error {
	if real, dense := ctl.Image.RealSlots(bucket); dense {
		for ; real != 0; real &= real - 1 {
			if err := c.loadSlot(ctl, bucket, bits.TrailingZeros32(real), l, target); err != nil {
				return err
			}
		}
		return nil
	}
	for z := 0; z < ctl.Tree.Z; z++ {
		if err := c.loadSlot(ctl, bucket, z, l, target); err != nil {
			return err
		}
	}
	return nil
}

// loadSlot loads one slot of a bucket on the path to l of tree ctl: a
// block it brings into ctl's stash is appended to c.scratch.loaded. A
// header comes from the image overlay's plaintext descriptor, else
// from a real header open, and a payload is only decrypted for blocks
// that actually enter the stash. Overlay-resident payloads copy
// plaintext directly: the steady-state bucket load runs without any AES
// at all.
func (c *Controller) loadSlot(ctl *oram.Controller, bucket uint64, z int, l oram.Leaf, target oram.Addr) error {
	eng := ctl.Engine
	img := ctl.Image
	addr, leaf, ver, dummy, ok := img.PlainHeader(bucket, z)
	if dummy {
		return nil
	}
	if !ok {
		var err error
		addr, leaf, ver, err = oram.OpenSlotHeader(eng, img.Slot(bucket, z))
		if err != nil {
			return fmt.Errorf("core: bucket %d slot %d: %w", bucket, z, err)
		}
	}
	if addr == oram.DummyAddr {
		return nil
	}
	if uint64(addr) >= ctl.NumBlocks() {
		return fmt.Errorf("core: tree contains out-of-range addr %d", addr)
	}
	dataTree := ctl == c.ORAM
	existing := ctl.Stash.Get(addr)
	// A copy on this path whose header leaf matches the *durable* PosMap
	// while a fresher pending copy sits in the stash is the block's
	// durable continuation (typically a backup from an earlier access).
	// Overwriting the path destroys it, so record it: the eviction will
	// write a replacement backup.
	if dataTree && existing != nil && existing.PendingRemap && c.policy.WPQAtomic() &&
		c.durable.Lookup(addr) == leaf {
		c.endanger(addr, durableCopy{leaf: leaf, bucket: bucket, slot: z})
	}
	// The in-flight target's header still carries the pre-remap leaf.
	current := l
	switch {
	case addr == target:
	case dataTree:
		current = c.currentLeaf(addr)
	default:
		current = ctl.PosMap.Lookup(addr)
	}
	if current != leaf {
		return nil // stale copy (superseded backup): reads as dummy
	}
	sb := existing
	if sb != nil {
		// On the data tree the resident copy wins: loadPathTimed stamps the
		// epoch only after the whole path is loaded, so a copy already in
		// the stash is either from an earlier access, and always fresher,
		// or this block's own backup met earlier on this path, and
		// identical. On a PosMap tree, between two copies this walk loaded
		// the higher seal version wins: resident-wins would keep an older
		// copy met nearer the root (TestPosMapWalkKeepsNewerDuplicate).
		if dataTree || ver <= sb.Ver || !slices.Contains(c.scratch.loaded, sb) {
			return nil
		}
	} else {
		sb = c.getStashBlock()
		sb.Addr, sb.Leaf = addr, leaf
		sb.OriginBucket, sb.OriginSlot = bucket, z
		ctl.Stash.Put(sb)
		c.scratch.loaded = append(c.scratch.loaded, sb)
	}
	sb.Ver = ver
	if plain := img.PlainData(bucket, z); plain != nil {
		sb.Data = append(sb.Data[:0], plain...)
	} else {
		sb.Data = oram.OpenSlotDataInto(eng, img.Slot(bucket, z), sb.Data[:0])
	}
	return nil
}

// timeOnChipNVM schedules one op on the FullNVM on-chip device and
// advances the time cursor (on-chip structure accesses serialize with
// the protocol).
func (c *Controller) timeOnChipNVM(op nvm.Op) {
	if c.onchipNVM == nil {
		return
	}
	ratio := mem.Cycle(c.Cfg.CoreCyclesPerNVMCycle())
	comp := c.onchipNVM.Schedule(op, int(c.now)%c.onchipNVM.Banks(), int64(c.now>>6), nvm.Cycle(c.now/ratio))
	c.now = mem.Cycle(comp.Done) * ratio
	c.counters.Inc("onchip.nvm.ops")
}

// evictionOrder builds the crash-consistent candidate order:
//  1. backups and clean path-origin blocks (they must return to this
//     path or a partial write-back strands them — Fig. 3; the remapped
//     target is exempt because its backup is its durable continuation),
//     deepest target first;
//  2. blocks with pending temporary-PosMap entries, oldest first (their
//     metadata can only become durable by evicting them);
//  3. everything else, deepest first.
func (c *Controller) evictionOrder(l oram.Leaf) []*oram.StashBlock {
	must := append(c.scratch.must[:0], c.ORAM.Stash.Backups()...)
	pending := c.scratch.pending[:0]
	rest := c.scratch.rest[:0]
	for _, b := range c.ORAM.Stash.AppendLive(c.scratch.order[:0]) {
		switch {
		case c.mustReturn(b):
			must = append(must, b)
		case b.PendingRemap:
			pending = append(pending, b)
		default:
			rest = append(rest, b)
		}
	}
	c.sortByDepth(c.ORAM.Tree, l, must)
	c.sortByKey(pending, remapSeqKey)
	c.sortByDepth(c.ORAM.Tree, l, rest)
	c.scratch.must, c.scratch.pending, c.scratch.rest = must, pending, rest
	order := append(c.scratch.order[:0], must...)
	order = append(order, pending...)
	order = append(order, rest...)
	c.scratch.order = order
	return order
}

// greedyOrder is plain Path ORAM's eviction order onto path l of tree
// ctl: its live blocks, deepest first. It holds no backup or pending
// remap: only the persistent schemes' data trees do (evictionOrder).
func (c *Controller) greedyOrder(ctl *oram.Controller, l oram.Leaf) []*oram.StashBlock {
	c.scratch.order = ctl.Stash.AppendLive(c.scratch.order[:0])
	c.sortByDepth(ctl.Tree, l, c.scratch.order)
	return c.scratch.order
}

// mustReturn reports whether live stash block b must go back to the path
// this access read: it was loaded from that path (a clean path-origin
// block) and is not the remapped target, whose backup is its durable
// continuation. A partial write-back would strand it (Fig. 3).
func (c *Controller) mustReturn(b *oram.StashBlock) bool {
	return b.OriginEpoch == c.epoch && c.epoch != 0 && !b.PendingRemap
}

// planEviction fills c.scratch.plan for the data path to l of a
// persistent scheme — by identity placement (planIdentity) or in
// evictionOrder — and charges the path's encryption. It fails when a
// backup or a must-return block did not fit.
func (c *Controller) planEviction(l oram.Leaf, identity bool) error {
	var unplaced []*oram.StashBlock
	if identity {
		unplaced = c.planIdentity(l)
	} else {
		c.scratch.unplaced = c.ORAM.PlanEvictionInto(l, c.evictionOrder(l), c.scratch.plan.rows, c.scratch.plan.used, c.scratch.unplaced)
		unplaced = c.scratch.unplaced
	}
	for _, b := range unplaced {
		if b.Backup || c.mustReturn(b) {
			return fmt.Errorf("core: must-evict block %d did not fit path %d", b.Addr, l)
		}
	}
	c.now += mem.Cycle(c.ORAM.Engine.EncryptLatency(c.ORAM.Tree.PathBlocks()))
	return nil
}

// planIdentity fills c.scratch.plan for the ordered small-WPQ mode:
// clean path-origin blocks return to their exact original slots (no
// displacement, hence no write-order cycles); backups, pending blocks,
// and any other stash blocks fill the remaining slots greedily.
func (c *Controller) planIdentity(l oram.Leaf) (unplaced []*oram.StashBlock) {
	t := c.ORAM.Tree
	// On-path test via the shared path-index table: a bucket is on the
	// path to l iff the level-of-bucket lookup maps back to it.
	onPathLevel := func(bucket uint64) (int, bool) {
		k := c.pathIdx.LevelOf(bucket)
		return k, k <= t.L && c.pathIdx.Bucket(l, k) == bucket
	}
	plan := c.scratch.plan.rows
	for k := range plan {
		row := plan[k]
		for z := range row {
			row[z] = nil
		}
	}
	movers := c.scratch.movers[:0]
	// Identity placement for backups that replace a known slot (the
	// consumed target copy or an endangered rescue): a backup written to
	// the very slot it replaces is its own continuation — no write-order
	// edge at all.
	looseBackups := c.scratch.loose[:0]
	for _, b := range c.ORAM.Stash.Backups() {
		if b.OriginEpoch == c.epoch && c.epoch != 0 {
			k, ok := onPathLevel(b.OriginBucket)
			if ok && b.OriginSlot < t.Z && plan[k][b.OriginSlot] == nil {
				plan[k][b.OriginSlot] = b
				continue
			}
		}
		looseBackups = append(looseBackups, b)
	}
	c.scratch.rest = c.ORAM.Stash.AppendLive(c.scratch.rest[:0])
	for _, b := range c.scratch.rest {
		if c.mustReturn(b) {
			k, ok := onPathLevel(b.OriginBucket)
			if ok && b.OriginSlot < t.Z && plan[k][b.OriginSlot] == nil {
				plan[k][b.OriginSlot] = b
				continue
			}
		}
		movers = append(movers, b)
	}
	// Remaining backups first (must evict), then pending by age, then
	// the rest.
	order := append(c.scratch.order[:0], looseBackups...)
	c.sortByKey(movers, moverKey)
	order = append(order, movers...)
	c.scratch.movers, c.scratch.loose, c.scratch.order = movers, looseBackups, order
	unplaced = c.scratch.unplaced[:0]
	for _, b := range order {
		deepest := t.IntersectLevel(l, b.TargetLeaf())
		placed := false
		for k := deepest; k >= 0 && !placed; k-- {
			for z := 0; z < t.Z; z++ {
				if plan[k][z] == nil {
					plan[k][z] = b
					placed = true
					break
				}
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	c.scratch.unplaced = unplaced
	return unplaced
}

// evictPosted is the write-back of Baseline, FullNVM, eADR-ORAM and
// Rcr-Baseline: plain greedy Path ORAM eviction (no crash-consistency
// obligation: a block that does not fit lingers in the stash), written
// through the volatile write buffer — fast, coalesced, and lost on crash
// before completion.
func (c *Controller) evictPosted(l oram.Leaf) (int, int, error) {
	c.stageMark()
	plan := &c.scratch.plan
	c.scratch.unplaced = c.ORAM.PlanEvictionInto(l, c.greedyOrder(c.ORAM, l), plan.rows, plan.used, c.scratch.unplaced)
	c.now += mem.Cycle(c.ORAM.Engine.EncryptLatency(c.ORAM.Tree.PathBlocks()))
	c.stageAdd(StageEvict)
	real, err := c.writeBack(0, c.planSlots(0, l, true))
	if err != nil {
		return 0, 0, err
	}
	c.recycleEvicted()
	return real, 0, nil
}

// writeBack writes the plan slots of the tree in region into its image
// and moves the placed blocks from its stash to c.scratch.evicted. It
// returns the number of real blocks written; its only error is
// ErrCrashed, from a posted data-tree write-back.
//
// Into the access's open batch (Rcr-PS-ORAM) every write is applied at
// once, so later steps of the same access read the path as written, and
// logged for an undo until the batch commits: a data-tree slot is a data
// WPQ entry, a PosMap-tree slot a PosMap WPQ entry. Without a batch the
// writes are posted: on either tree they all issue at the current cycle
// and the caller proceeds at the latest admission; a write the device
// completes later is logged with its completion cycle. On the data tree
// a crash point follows every slot: a power failure there loses what is
// still buffered, and ErrCrashed is returned once the plan's blocks have
// left the stash. A PosMap tree has no crash point.
func (c *Controller) writeBack(region int, slots []plannedSlot) (real int, err error) {
	ctl, batch := c.trees[region], c.scratch.batch
	img := ctl.Image
	if batch == nil {
		img.Release(0, uint64(c.now)) // what is complete by now is durable
	}
	proceed := c.now
	crashed := false
	for i := range slots {
		s := &slots[i]
		loc := c.Mem.RegionTreeLocation(region, s.bucket, s.z)
		switch {
		case batch != nil:
			if region == 0 {
				batch.AddData(loc)
			} else {
				batch.AddPosMapBlock(loc)
			}
			s.writeTo(img, oram.NeverDone, c.now)
		case !crashed: // after a power failure the rest is never written
			p, done := c.Mem.WriteBlockPosted(loc, c.now)
			s.writeTo(img, done, c.now)
			proceed = max(proceed, p)
			if region == 0 {
				if c.onchipNVM != nil && s.block != nil {
					c.timeOnChipNVM(nvm.Read) // read the block out of the NVM stash
				}
				crashed = c.maybeCrash(5, i)
			}
		}
		if b := s.block; b != nil {
			c.retire(ctl, b)
			real++
		}
	}
	if crashed {
		return real, ErrCrashed
	}
	if batch == nil {
		c.now = proceed
	}
	return real, nil
}

// retire moves block b, written back, out of the stash of tree ctl into
// c.scratch.evicted, where it waits to recycle; a live block's pending
// remap, if any, went with the write.
func (c *Controller) retire(ctl *oram.Controller, b *oram.StashBlock) {
	if b.Backup {
		ctl.Stash.RemoveBackup(b)
	} else {
		ctl.Stash.Remove(b.Addr)
		b.PendingRemap = false
	}
	c.scratch.evicted = append(c.scratch.evicted, b)
}
