package core

import (
	"fmt"
	"slices"

	"repro/internal/oram"
)

// orderedScratch is evictOrdered's working state, reused across
// evictions. Every per-slot array is indexed by path slot (root first, Z
// per bucket), so every pass over it runs in slot order and the
// eviction's outcome, error text included, is a function of the plan.
type orderedScratch struct {
	// perm is the continuation slot that must commit no later than the
	// slot; after the slot whose write must precede the slot's own (a
	// bounce host's write waits for its member's); bounceOf the bounce
	// that must commit before the slot; group the first slot of the cycle
	// that commits with the slot as one atomic batch. -1 is none.
	perm, after, bounceOf, group []int
	hosting                      []bool  // a dummy slot hosting a bounced copy
	state                        []uint8 // cycle search: 0 unvisited, 1 on the stack, 2 done
	emitted                      []bool
	stack, cycle                 []int
	bounces                      []bounce
	gs, pending                  []plannedSlot // a group's writes; the open batch
	pendingPos                   int           // the open batch's PosMap WPQ demand
	real, dirty                  int
}

// bounce is one bounce write: the fresh copy of the block of slot src,
// written into the dummy slot dst first.
type bounce struct {
	dst, src int
	done     bool
}

// reset sizes the per-slot arrays for n slots and clears every set.
func (o *orderedScratch) reset(n int) {
	o.perm, o.after = refill(o.perm, n, -1), refill(o.after, n, -1)
	o.bounceOf, o.group = refill(o.bounceOf, n, -1), refill(o.group, n, -1)
	o.hosting, o.emitted, o.state = refill(o.hosting, n, false), refill(o.emitted, n, false), refill(o.state, n, 0)
	o.bounces, o.pending = o.bounces[:0], o.pending[:0]
	o.pendingPos, o.real, o.dirty = 0, 0, 0
}

// refill returns s holding n copies of v, reusing its array.
func refill[T any](s []T, n int, v T) []T {
	s = s[:0]
	for range n {
		s = append(s, v)
	}
	return s
}

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
	o := &c.scratch.ordered
	o.reset(len(slots))

	// Locate the live durable copies currently on the path, and each one's
	// continuation in the plan. A slot without an overlay entry (a
	// recovered store's) has its header opened.
	for i, s := range slots {
		addr, leaf, _, _, ok := img.PlainHeader(s.bucket, s.z)
		if !ok {
			var err error
			if addr, leaf, _, err = oram.OpenSlotHeader(c.ORAM.Engine, img.Slot(s.bucket, s.z)); err != nil {
				return 0, 0, err
			}
		}
		if addr == oram.DummyAddr || c.durable.Lookup(addr) != leaf {
			continue
		}
		j, live := c.continuation(slots, addr)
		if j == -1 {
			return 0, 0, fmt.Errorf("core: live block %d at path slot %d has no continuation in the plan", addr, i)
		}
		if !live || j != i {
			o.perm[i] = j
		}
	}

	// Detect cycles in the functional graph. A cycle that fits the WPQs
	// commits as one atomic batch; a larger one is broken by bouncing a
	// member's displaced block's fresh copy into an available dummy slot.
	for start := range slots {
		if o.state[start] != 0 {
			continue
		}
		o.stack = o.stack[:0]
		v := start
		for v != -1 && o.state[v] == 0 {
			o.state[v] = 1
			o.stack = append(o.stack, v)
			v = o.perm[v]
		}
		if v != -1 && o.state[v] == 1 {
			if o.cycleFrom(v); len(o.cycle) <= c.Cfg.DataWPQEntries {
				for _, u := range o.cycle {
					o.group[u] = v // intra-group deps handled by atomicity
				}
			} else if err := c.breakCycle(l, slots, t); err != nil {
				return 0, 0, err
			}
		}
		for _, u := range o.stack {
			o.state[u] = 2
		}
	}

	// Kahn's algorithm over the dependency lists, in slot order.
	for remaining := len(slots); remaining > 0; {
		progress := false
		for s := range slots {
			if o.emitted[s] {
				continue
			}
			if g := o.group[s]; g != -1 {
				// Atomic cycle group: all members together, one batch.
				o.cycleFrom(g)
				if slices.ContainsFunc(o.cycle, func(m int) bool { return o.waits(m, g) }) {
					continue
				}
				grp := o.cycle
				o.gs = o.gs[:0]
				pos := 0
				for _, m := range grp {
					if err := c.emitBounce(slots, m); err != nil {
						return 0, 0, err
					}
					o.gs = append(o.gs, slots[m])
					pos += c.posMapEntries(&slots[m])
				}
				if len(o.gs) > c.Cfg.DataWPQEntries || pos > c.Cfg.PosMapWPQEntries {
					return 0, 0, fmt.Errorf("core: atomic cycle group of %d slots exceeds the WPQs", len(o.gs))
				}
				if err := c.orderedAdd(o.gs...); err != nil {
					return 0, 0, err
				}
				for _, m := range grp {
					o.emitted[m] = true
					remaining--
				}
				progress = true
				continue
			}
			// Dependencies must be in committed batches or the current
			// pending batch (which commits no later).
			waits := o.waits(s, -1)
			if err := c.emitBounce(slots, s); err != nil {
				return 0, 0, err
			}
			if waits {
				continue
			}
			if err := c.orderedAdd(slots[s]); err != nil {
				return 0, 0, err
			}
			o.emitted[s] = true
			remaining--
			progress = true
		}
		if !progress {
			return 0, 0, fmt.Errorf("core: ordered eviction made no progress with %d slots left (dependency bug)", remaining)
		}
	}
	if err := c.orderedFlush(); err != nil {
		return 0, 0, err
	}
	// Recycled only now: a bounce write reads a member's block across
	// batches.
	c.recycleEvicted()
	*c.hDirty += int64(o.dirty)
	return o.real, o.dirty, nil
}

// continuation is the plan slot holding the continuation of block addr's
// live durable copy (-1: none): its own new slot (live), else its
// backup's. Of several backups (the step-4 one plus a rescue) it is the
// first sealed under the durable leaf, else the last.
func (c *Controller) continuation(slots []plannedSlot, addr oram.Addr) (j int, live bool) {
	bak := -1
	for i := range slots {
		b := slots[i].block
		switch {
		case b == nil || b.Addr != addr:
		case !b.Backup:
			return i, true
		case bak == -1 || slots[bak].block.BackupLeaf != c.durable.Lookup(addr):
			bak = i
		}
	}
	return bak, false
}

// breakCycle breaks the cycle in scratch with a bounce write: the first
// member whose displaced block's fresh copy fits a free dummy slot on its
// own path is bounced there.
func (c *Controller) breakCycle(l oram.Leaf, slots []plannedSlot, t oram.Tree) error {
	o := &c.scratch.ordered
	for _, u := range o.cycle {
		j := o.perm[u] // slot holding u's old occupant's new copy
		member := slots[j].block
		if member == nil {
			return fmt.Errorf("core: cycle continuation slot %d holds no block", j)
		}
		maxLevel := t.IntersectLevel(l, member.TargetLeaf())
		for dst := range slots {
			if slots[dst].block != nil || o.hosting[dst] || dst/t.Z > maxLevel {
				continue
			}
			o.hosting[dst] = true
			o.bounces = append(o.bounces, bounce{dst: dst, src: j})
			o.bounceOf[u] = len(o.bounces) - 1
			// The dummy's own planned write must come after the member's
			// final placement.
			o.after[dst] = j
			o.perm[u] = -1 // cycle broken
			return nil
		}
	}
	return fmt.Errorf("core: no dummy slot available to break a %d-slot eviction cycle on path %d", len(o.cycle), l)
}

// cycleFrom sets cycle to the slots of perm's cycle through v, from v on.
func (o *orderedScratch) cycleFrom(v int) {
	o.cycle = append(o.cycle[:0], v)
	for u := o.perm[v]; u != v; u = o.perm[u] {
		o.cycle = append(o.cycle, u)
	}
}

// waits reports whether slot s depends on a write that is neither
// emitted nor in group g (-1: no group).
func (o *orderedScratch) waits(s, g int) bool {
	for _, d := range [2]int{o.perm[s], o.after[s]} {
		if d != -1 && !o.emitted[d] && (g == -1 || o.group[d] != g) {
			return true
		}
	}
	return false
}

// emitBounce adds the bounce write that must commit before slot s, if
// there is one not yet emitted.
func (c *Controller) emitBounce(slots []plannedSlot, s int) error {
	o := &c.scratch.ordered
	b := o.bounceOf[s]
	if b == -1 || o.bounces[b].done {
		return nil
	}
	src, dst := &slots[o.bounces[b].src], &slots[o.bounces[b].dst]
	if err := c.orderedAdd(plannedSlot{
		bucket: dst.bucket, z: dst.z, bounce: src.block,
		leaf: src.leaf, ver: src.ver, iv1: src.iv1, iv2: src.iv2,
	}); err != nil {
		return err
	}
	o.bounces[b].done = true
	c.counters.Inc("psoram.bounce_writes")
	return nil
}

// orderedAdd appends gs to the ordered eviction's open batch, committing
// the batch first when gs would overflow a WPQ.
func (c *Controller) orderedAdd(gs ...plannedSlot) error {
	o := &c.scratch.ordered
	pos := 0
	for i := range gs {
		pos += c.posMapEntries(&gs[i])
	}
	if len(o.pending)+len(gs) > c.Cfg.DataWPQEntries || o.pendingPos+pos > c.Cfg.PosMapWPQEntries {
		if err := c.orderedFlush(); err != nil {
			return err
		}
	}
	o.pending = append(o.pending, gs...)
	o.pendingPos += pos
	return nil
}

// orderedFlush commits the ordered eviction's open batch, if it holds
// anything, and applies it.
func (c *Controller) orderedFlush() error {
	o := &c.scratch.ordered
	if len(o.pending) == 0 {
		return nil
	}
	batch := c.Mem.BeginBatch()
	r, d := c.stageBatch(batch, o.pending)
	done, err := batch.Commit(c.now)
	if err != nil {
		return err
	}
	c.now = done
	c.applyCommitted(o.pending)
	c.finishEvicted(o.pending)
	o.real += r
	o.dirty += d
	c.counters.Inc("psoram.ordered_batches")
	o.pending, o.pendingPos = o.pending[:0], 0
	// Crash point at every committed-batch boundary: this is where a
	// power failure observes a partially written path.
	if c.maybeCrash(5, int(c.counters.Get("psoram.ordered_batches"))) {
		return ErrCrashed
	}
	return nil
}
