package core

import (
	"fmt"

	"repro/internal/oram"
)

// evictOrdered is the limited-persistence-domain eviction (§4.2.3): when
// the WPQs cannot hold a full path, the write-back is split into several
// atomic batches whose order guarantees that no live block's only
// durable copy is overwritten before its replacement committed (the
// paper's {e -> c -> b} ordering rule, generalized).
//
// Dependency rule: for every path slot s whose current NVM content is a
// live durable copy of some block A (header leaf == durable PosMap
// leaf), the batch that commits A's continuation — its new slot on this
// path (with its PosMap entry, if dirty) or its backup's slot — must
// commit no later than the batch that overwrites s.
//
// Because each block occupies one slot and is placed into one slot, the
// core dependency graph is a partial permutation: disjoint chains and
// cycles. Chains are emitted dependency-first. A cycle (blocks mutually
// displacing each other) cannot be linearized, so it is broken with a
// *bounce write*: one cycle member's fresh copy — its block under its
// own slot's IVs and version — is first written into a slot the plan
// fills with a dummy ("additional dummy blocks can be inserted in
// between of real blocks during the eviction" — §4.2.3), after which the
// cycle is an ordinary chain. The bounced copy is overwritten by the
// plan's own write of that slot, which is constrained to come after the
// member's final placement.
func (c *Controller) evictOrdered(l oram.Leaf, slots []plannedSlot) (int, int, error) {
	t := c.ORAM.Tree
	img := c.ORAM.Image
	// Slot index -> path level is pure arithmetic (slots are laid out
	// root-to-leaf, Z per bucket); no per-call map needed.
	levelOf := func(i int) int { return i / t.Z }

	// Locate the live durable copies currently on the path. A slot
	// without an overlay entry (a recovered store's) has its header
	// opened.
	oldLiveAt := make(map[int]oram.Addr)
	for i, s := range slots {
		addr, leaf, _, _, ok := img.PlainHeader(s.bucket, s.z)
		if !ok {
			var err error
			if addr, leaf, _, err = oram.OpenSlotHeader(c.ORAM.Engine, img.Slot(s.bucket, s.z)); err != nil {
				return 0, 0, err
			}
		}
		if addr != oram.DummyAddr && c.durable.Lookup(addr) == leaf {
			oldLiveAt[i] = addr
		}
	}
	// Locate each block's continuation slot in the plan. A block may
	// have several backups (step-4 plus a rescue); the continuation of a
	// live durable copy is the backup sealed under the durable leaf.
	newSlotOf := make(map[oram.Addr]int)
	backupSlotOf := make(map[oram.Addr]int)
	for i, s := range slots {
		if s.block == nil {
			continue
		}
		if s.block.Backup {
			if j, ok := backupSlotOf[s.block.Addr]; ok {
				// Keep the one matching the durable leaf.
				if slots[j].block.BackupLeaf == c.durable.Lookup(s.block.Addr) {
					continue
				}
			}
			backupSlotOf[s.block.Addr] = i
		} else {
			newSlotOf[s.block.Addr] = i
		}
	}
	// perm[s] = the continuation slot that must commit no later than s
	// (the functional-graph part); -1 when unconstrained.
	perm := make([]int, len(slots))
	for i := range perm {
		perm[i] = -1
	}
	for i, addr := range oldLiveAt {
		if j, ok := newSlotOf[addr]; ok {
			if j != i {
				perm[i] = j
			}
			continue
		}
		if j, ok := backupSlotOf[addr]; ok {
			perm[i] = j
			continue
		}
		return 0, 0, fmt.Errorf("core: live block %d at path slot %d has no continuation in the plan", addr, i)
	}

	// Detect cycles in the functional graph and break each with a bounce
	// write. extraBefore[s] lists bounce units that must commit before
	// slot s; extraAfterDep adds "slot j before slot d" edges for the
	// dummies that temporarily host a bounced copy.
	type bounce struct {
		dst int // dummy slot hosting the copy
		src int // the member's own slot, whose write the copy is
	}
	var bounces []bounce
	bounceBefore := make(map[int]int) // slot index -> bounce index that must precede it
	extraDeps := make(map[int][]int)  // slot -> additional slots that must precede it

	state := make([]int, len(slots)) // 0 unvisited, 1 in-stack, 2 done
	var stack []int
	usedDummy := make(map[int]bool)
	groupOf := make(map[int][]int) // slot -> atomic cycle group containing it
	for start := range slots {
		if state[start] != 0 {
			continue
		}
		stack = stack[:0]
		v := start
		for v != -1 && state[v] == 0 {
			state[v] = 1
			stack = append(stack, v)
			v = perm[v]
		}
		if v != -1 && state[v] == 1 {
			// Found a cycle containing v. Collect its nodes. A cycle that
			// fits the WPQs commits as one atomic batch; a larger one is
			// broken by bouncing a member's displaced block's fresh copy
			// into an available dummy slot.
			cycle := []int{v}
			for u := perm[v]; u != v; u = perm[u] {
				cycle = append(cycle, u)
			}
			if len(cycle) <= c.Cfg.DataWPQEntries {
				grp := make([]int, len(cycle))
				copy(grp, cycle)
				for _, u := range cycle {
					groupOf[u] = grp
					perm[u] = -1 // intra-group deps handled by atomicity
				}
				for _, u := range stack {
					state[u] = 2
				}
				continue
			}
			broken := false
			for _, u := range cycle {
				j := perm[u] // slot holding u's old occupant's new copy
				member := slots[j].block
				if member == nil {
					return 0, 0, fmt.Errorf("core: cycle continuation slot %d holds no block", j)
				}
				maxLevel := t.IntersectLevel(l, member.TargetLeaf())
				dst := -1
				for cand, s := range slots {
					if s.block == nil && !usedDummy[cand] && levelOf(cand) <= maxLevel {
						dst = cand
						break
					}
				}
				if dst == -1 {
					continue // try the next member
				}
				usedDummy[dst] = true
				bounces = append(bounces, bounce{dst: dst, src: j})
				bounceBefore[u] = len(bounces) - 1
				// The dummy's own planned write must come after the
				// member's final placement.
				extraDeps[dst] = append(extraDeps[dst], j)
				perm[u] = -1 // cycle broken
				broken = true
				break
			}
			if !broken {
				return 0, 0, fmt.Errorf("core: no dummy slot available to break a %d-slot eviction cycle on path %d", len(cycle), l)
			}
		}
		for _, u := range stack {
			state[u] = 2
		}
	}

	// Kahn's algorithm over the combined dependency lists.
	depsOf := func(s int) []int {
		var d []int
		if perm[s] != -1 {
			d = append(d, perm[s])
		}
		d = append(d, extraDeps[s]...)
		return d
	}
	emitted := make([]bool, len(slots))
	bounceEmitted := make([]bool, len(bounces))
	remaining := len(slots)

	// Batching state: pending is the open batch, pendingPos its PosMap
	// WPQ demand.
	real, dirty := 0, 0
	var pending []plannedSlot
	pendingPos := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch := c.Mem.BeginBatch()
		r, d := c.stageBatch(batch, pending)
		done, err := batch.Commit(c.now)
		if err != nil {
			return err
		}
		c.now = done
		c.applyCommitted(pending)
		// No recycling: a bounce write refers to its member's block
		// across batches.
		c.finishEvicted(pending, false)
		real += r
		dirty += d
		c.counters.Inc("psoram.ordered_batches")
		pending, pendingPos = pending[:0], 0
		// Crash point at every committed-batch boundary: this is where a
		// power failure observes a partially written path.
		if c.maybeCrash(5, int(c.counters.Get("psoram.ordered_batches"))) {
			return ErrCrashed
		}
		return nil
	}
	// addAll appends gs to the open batch, flushing it first when gs
	// would overflow a WPQ.
	addAll := func(gs ...plannedSlot) error {
		pos := 0
		for i := range gs {
			pos += c.posMapEntries(&gs[i])
		}
		if len(pending)+len(gs) > c.Cfg.DataWPQEntries || pendingPos+pos > c.Cfg.PosMapWPQEntries {
			if err := flush(); err != nil {
				return err
			}
		}
		pending = append(pending, gs...)
		pendingPos += pos
		return nil
	}
	addGroup := func(grp []int) error {
		gs := make([]plannedSlot, 0, len(grp))
		pos := 0
		for _, m := range grp {
			gs = append(gs, slots[m])
			pos += c.posMapEntries(&slots[m])
		}
		if len(gs) > c.Cfg.DataWPQEntries || pos > c.Cfg.PosMapWPQEntries {
			return fmt.Errorf("core: atomic cycle group of %d slots exceeds the WPQs", len(gs))
		}
		return addAll(gs...)
	}

	groupReady := func(grp []int) bool {
		inGrp := make(map[int]bool, len(grp))
		for _, m := range grp {
			inGrp[m] = true
		}
		for _, m := range grp {
			for _, d := range depsOf(m) {
				if !inGrp[d] && !emitted[d] {
					return false
				}
			}
		}
		return true
	}
	emitBounce := func(s int) error {
		b, ok := bounceBefore[s]
		if !ok || bounceEmitted[b] {
			return nil
		}
		src, dst := &slots[bounces[b].src], &slots[bounces[b].dst]
		if err := addAll(plannedSlot{
			bucket: dst.bucket, z: dst.z, bounce: src.block,
			leaf: src.leaf, ver: src.ver, iv1: src.iv1, iv2: src.iv2,
		}); err != nil {
			return err
		}
		bounceEmitted[b] = true
		c.counters.Inc("psoram.bounce_writes")
		return nil
	}
	for remaining > 0 {
		progress := false
		for s := range slots {
			if emitted[s] {
				continue
			}
			if grp, ok := groupOf[s]; ok {
				// Atomic cycle group: all members together, one batch.
				if !groupReady(grp) {
					continue
				}
				for _, m := range grp {
					if err := emitBounce(m); err != nil {
						return 0, 0, err
					}
				}
				if err := addGroup(grp); err != nil {
					return 0, 0, err
				}
				for _, m := range grp {
					if !emitted[m] {
						emitted[m] = true
						remaining--
					}
				}
				progress = true
				continue
			}
			ready := true
			for _, d := range depsOf(s) {
				// Dependencies must be in committed batches or the
				// current pending batch (which commits no later).
				if !emitted[d] {
					ready = false
					break
				}
			}
			if err := emitBounce(s); err != nil {
				return 0, 0, err
			}
			if !ready {
				continue
			}
			if err := addAll(slots[s]); err != nil {
				return 0, 0, err
			}
			emitted[s] = true
			remaining--
			progress = true
		}
		if !progress {
			return 0, 0, fmt.Errorf("core: ordered eviction made no progress with %d slots left (dependency bug)", remaining)
		}
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	*c.hDirty += int64(dirty)
	return real, dirty, nil
}
