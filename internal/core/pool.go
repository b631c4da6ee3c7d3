package core

import (
	"cmp"
	"slices"

	"repro/internal/oram"
)

// This file holds the controller's stash-block recycling. The serving
// hot path (load path -> serve -> commit) would allocate a fresh
// StashBlock + payload per loaded block; in steady state every one of
// those has an exact counterpart dying in the same access (the blocks
// evicted), so the freelist below lets the path run allocation-free.
// Every write-back recycles what it evicted once nothing reads it (see
// recycleEvicted's callers).

// getStashBlock returns a zeroed stash block whose Data buffer has
// BlockBytes capacity (length 0).
func (c *Controller) getStashBlock() *oram.StashBlock {
	if n := len(c.freeBlocks); n > 0 {
		b := c.freeBlocks[n-1]
		c.freeBlocks[n-1] = nil
		c.freeBlocks = c.freeBlocks[:n-1]
		return b
	}
	return &oram.StashBlock{Data: make([]byte, 0, c.Cfg.BlockBytes)}
}

// putStashBlock resets every protocol field of b and returns it to the
// freelist. The caller must guarantee no live reference remains (b has
// been removed from the stash and its Data is not aliased).
func (c *Controller) putStashBlock(b *oram.StashBlock) {
	data := b.Data[:0]
	*b = oram.StashBlock{Data: data}
	c.freeBlocks = append(c.freeBlocks, b)
}

// recycleEvicted returns the blocks evicted since the last call (see
// scratch.evicted) to the freelist.
func (c *Controller) recycleEvicted() {
	for i, b := range c.scratch.evicted {
		c.putStashBlock(b)
		c.scratch.evicted[i] = nil
	}
	c.scratch.evicted = c.scratch.evicted[:0]
}

// Eviction-order sorting. Each order is a single ascending uint64 key
// per block, so the sort runs over (key, block) pairs in a reused scratch
// slice with an inlined integer compare — no interface Less/Swap per
// comparison, no allocation. The orders are total: ties are broken by
// address, and no partition holds two blocks of one address at one
// depth — not two live blocks; not a live block and its backup (a block
// has a backup only while its own remap is pending, which puts it in
// another partition); not two backups (the step-4 one targets the path
// itself, a rescue one a leaf that left it higher up).
type keyedBlock struct {
	key uint64
	b   *oram.StashBlock
}

const insertionSortMax = 32

// sortByKey sorts blocks in place, ascending by key(b). A partition
// holds about a path's worth of real blocks at most, a dozen or so, so
// up to insertionSortMax pairs are sorted by insertion, inline; the
// orders being total, the algorithm does not show in the result.
func (c *Controller) sortByKey(blocks []*oram.StashBlock, key func(*oram.StashBlock) uint64) {
	ks := c.scratch.keyed[:0]
	for _, b := range blocks {
		ks = append(ks, keyedBlock{key(b), b})
	}
	if len(ks) <= insertionSortMax {
		for i := 1; i < len(ks); i++ {
			x := ks[i]
			j := i
			for ; j > 0 && ks[j-1].key > x.key; j-- {
				ks[j] = ks[j-1]
			}
			ks[j] = x
		}
	} else {
		slices.SortFunc(ks, func(x, y keyedBlock) int { return cmp.Compare(x.key, y.key) })
	}
	for i := range ks {
		blocks[i] = ks[i].b
	}
	c.scratch.keyed = ks
}

// sortByDepth orders deepest intersection with path l of tree t first,
// then by address: (L - depth) in the high bits, the address below.
func (c *Controller) sortByDepth(t oram.Tree, l oram.Leaf, blocks []*oram.StashBlock) {
	c.sortByKey(blocks, func(b *oram.StashBlock) uint64 {
		return uint64(t.L-t.IntersectLevel(l, b.TargetLeaf()))<<48 | uint64(b.Addr)
	})
}

// remapSeqKey orders pending remaps oldest first.
func remapSeqKey(b *oram.StashBlock) uint64 { return b.RemapSeq }

// moverKey is planIdentity's displaced-block order: pending remaps first
// (oldest first), then the rest by address.
func moverKey(b *oram.StashBlock) uint64 {
	if b.PendingRemap {
		return b.RemapSeq
	}
	return 1<<63 | uint64(b.Addr)
}
