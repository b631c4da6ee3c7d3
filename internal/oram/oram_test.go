package oram

import (
	"bytes"
	"testing"
	"testing/quick"
)

// smallParams returns a compact but non-trivial functional ORAM.
func smallParams(seed uint64) Params {
	return Params{
		Levels:       5,
		Z:            4,
		BlockBytes:   64,
		StashEntries: 120,
		NumBlocks:    100, // 100/252 slots < 50% utilization
		Seed:         seed,
	}
}

func mustNew(t *testing.T, p Params) *Controller {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewInitialState(t *testing.T) {
	c := mustNew(t, smallParams(1))
	// Every block must be reachable and zero.
	for a := Addr(0); uint64(a) < c.NumBlocks(); a++ {
		v, err := c.Peek(a)
		if err != nil {
			t.Fatalf("initial peek %d: %v", a, err)
		}
		if !bytes.Equal(v, make([]byte, 64)) {
			t.Fatalf("block %d not zero-initialized", a)
		}
	}
	// The image holds exactly NumBlocks real blocks.
	n, err := c.Image.CountReal()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != c.NumBlocks() {
		t.Fatalf("image holds %d real blocks, want %d", n, c.NumBlocks())
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 0},
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 10000},
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 245}, // >95% util
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 10, NumBlocks: 100},  // stash < path
		{Levels: 5, Z: 4, BlockBytes: 0, StashEntries: 120, NumBlocks: 100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be rejected: %+v", i, p)
		}
	}
}

func TestEvictionPlanRespectsPathConstraint(t *testing.T) {
	// Property: every block the plan places at level k of path l must
	// have IntersectLevel(l, target leaf) >= k, and the plan plus the
	// unplaced remainder is the candidate order exactly — over stashes of
	// live blocks and backups on arbitrary leaves.
	c := mustNew(t, smallParams(12))
	tr := c.Tree
	plan := make([][]*StashBlock, tr.L+1)
	for k := range plan {
		plan[k] = make([]*StashBlock, tr.Z)
	}
	used := make([]int, tr.L+1)
	f := func(leafSeed uint32, leaves []uint16, backups uint8) bool {
		if len(leaves) > 60 {
			leaves = leaves[:60]
		}
		c.Stash.Reset()
		for i, x := range leaves {
			b := &StashBlock{Addr: Addr(i), Leaf: Leaf(uint64(x) % tr.Leaves())}
			if i < int(backups)%8 {
				b.Backup, b.BackupLeaf = true, Leaf(uint64(x>>8)%tr.Leaves())
				c.Stash.PutBackup(b)
				continue
			}
			c.Stash.Put(b)
		}
		l := Leaf(uint64(leafSeed) % tr.Leaves())
		order := c.Stash.AppendLive(append([]*StashBlock(nil), c.Stash.Backups()...))
		unplaced := c.PlanEvictionInto(l, order, plan, used, nil)
		placed := 0
		for k := range plan {
			for _, b := range plan[k] {
				if b == nil {
					continue
				}
				placed++
				if tr.IntersectLevel(l, b.TargetLeaf()) < k {
					return false
				}
			}
		}
		return len(order) == len(leaves) && placed+len(unplaced) == len(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPeekWithAllocatesItsCopyOnly: PeekWith reads the headers of the
// path in place, from the overlay or, for a slot whose entry a PutSlot
// ended, by opening the store's sealed header; its one allocation is the
// payload copy it returns.
func TestPeekWithAllocatesItsCopyOnly(t *testing.T) {
	c := mustNew(t, smallParams(3))
	leafOf := func(a Addr) Leaf { return c.PosMap.Lookup(a) }
	a := Addr(0)
	for c.Stash.Get(a) != nil {
		a++
	}
	want, err := c.PeekWith(a, leafOf)
	if err != nil {
		t.Fatal(err)
	}
	for _, sealed := range []bool{false, true} {
		if sealed {
			for _, bucket := range c.Tree.Path(leafOf(a)) {
				for z := 0; z < c.Tree.Z; z++ {
					s := c.Image.Slot(bucket, z)
					s.SealedHeader = append([]byte(nil), s.SealedHeader...)
					s.SealedData = append([]byte(nil), s.SealedData...)
					c.Image.PutSlot(bucket, z, s)
				}
			}
		}
		var got []byte
		allocs := testing.AllocsPerRun(20, func() {
			if got, err = c.PeekWith(a, leafOf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 || !bytes.Equal(got, want) {
			t.Fatalf("sealed path %v: PeekWith allocates %.1f times (want 1, its copy), value equal %v", sealed, allocs, bytes.Equal(got, want))
		}
	}
}
