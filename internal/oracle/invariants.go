package oracle

import (
	"fmt"

	"repro/internal/oram"
)

// Structural invariants. These hold at every quiescent point (between
// accesses) for a correct controller; Check runs them at deep-check
// boundaries. Each adapter reports every violation it finds rather than
// stopping at the first, so one run paints the whole failure.

func (t *coreTarget) Invariants() []error {
	var errs []error
	c := t.ctl.ORAM
	leaves := c.Tree.Leaves()

	// Stash bound: the live set plus rescue backups must fit the
	// configured capacity at quiescent points.
	if c.Stash.Overflowed() {
		errs = append(errs, fmt.Errorf("stash overflow at quiescent point: %d > %d", c.Stash.Len(), c.Stash.Capacity()))
	}

	// Stash↔PosMap coherence: every live stash block's leaf must be the
	// working-map leaf for its address (Temp overlay over the on-chip
	// PosMap) and in range.
	for _, b := range c.Stash.Live() {
		if uint64(b.Addr) >= c.NumBlocks() {
			errs = append(errs, fmt.Errorf("stash holds out-of-range addr %d", b.Addr))
			continue
		}
		if uint64(b.Leaf) >= leaves {
			errs = append(errs, fmt.Errorf("stash block %d has out-of-range leaf %d", b.Addr, b.Leaf))
		}
		if cur := t.currentLeaf(b.Addr); b.Leaf != cur {
			errs = append(errs, fmt.Errorf("stash block %d carries leaf %d but the working map says %d", b.Addr, b.Leaf, cur))
		}
	}
	for _, b := range c.Stash.Backups() {
		if uint64(b.BackupLeaf) >= leaves {
			errs = append(errs, fmt.Errorf("backup of %d has out-of-range leaf %d", b.Addr, b.BackupLeaf))
		}
	}

	// PosMap range: every address maps to a real leaf.
	for a := oram.Addr(0); uint64(a) < c.NumBlocks(); a++ {
		if l := c.PosMap.Lookup(a); uint64(l) >= leaves {
			errs = append(errs, fmt.Errorf("posmap maps %d to out-of-range leaf %d", a, l))
		}
	}

	// Tree placement: every sealed real block sits on the path of the
	// leaf it was sealed under. (Stale copies superseded by a stash or
	// fresher tree version still satisfy this — blocks are only ever
	// written to their then-current path.) The headers are read in place
	// (oram.Image.OpenHeader): the scan copies no slot.
	for bucket := uint64(0); bucket < c.Tree.Buckets(); bucket++ {
		for z := 0; z < c.Tree.Z; z++ {
			addr, leaf, _, err := c.Image.OpenHeader(bucket, z)
			if err != nil {
				errs = append(errs, fmt.Errorf("bucket %d unreadable: %w", bucket, err))
				break
			}
			if addr == oram.DummyAddr {
				continue
			}
			if uint64(addr) >= c.NumBlocks() {
				errs = append(errs, fmt.Errorf("bucket %d holds out-of-range addr %d", bucket, addr))
				continue
			}
			if uint64(leaf) >= leaves {
				errs = append(errs, fmt.Errorf("bucket %d block %d sealed under out-of-range leaf %d", bucket, addr, leaf))
				continue
			}
			if !c.Tree.OnPath(bucket, leaf) {
				errs = append(errs, fmt.Errorf("bucket %d block %d sealed under leaf %d is off that leaf's path", bucket, addr, leaf))
			}
		}
	}

	// PosMap↔tree consistency: every address must be reachable through
	// the working map — either in the stash or sealed somewhere on its
	// current path.
	for a := oram.Addr(0); uint64(a) < c.NumBlocks(); a++ {
		if _, err := c.PeekWith(a, t.currentLeaf); err != nil {
			errs = append(errs, fmt.Errorf("addr %d unreachable through the working map: %w", a, err))
		}
	}
	return errs
}
