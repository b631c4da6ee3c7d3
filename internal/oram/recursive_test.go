package oram

import "testing"

func newRecursive(t *testing.T, dataBlocks uint64) (*Controller, *RecursiveMap) {
	t.Helper()
	p := smallParams(21)
	p.NumBlocks = dataBlocks
	data := mustNew(t, p)
	m, err := NewRecursiveMap(RecursiveParams{
		DataBlocks:      dataBlocks,
		DataTree:        data.Tree,
		BlockBytes:      64,
		EntriesPerBlock: 4,
		OnChipEntries:   8,
		StashEntries:    120,
		Seed:            77,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Level-1 blocks must reflect the data ORAM's initial placement.
	if err := m.SyncLevel1(data.PosMap); err != nil {
		t.Fatal(err)
	}
	return data, m
}

func TestRecursiveMapDepth(t *testing.T) {
	_, m := newRecursive(t, 100)
	// 100 addrs / 4 per block = 25 level-1 blocks; 25 > 8 on-chip, so
	// level 2 has ceil(25/4) = 7 <= 8 -> exactly 2 ORAM levels.
	if len(m.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(m.Levels))
	}
	if m.Levels[0].NumBlocks() != 25 || m.Levels[1].NumBlocks() != 7 {
		t.Fatalf("level sizes = %d,%d want 25,7", m.Levels[0].NumBlocks(), m.Levels[1].NumBlocks())
	}
}

func TestNewRecursiveMapRejectsBadParams(t *testing.T) {
	tree := NewTree(5, 4)
	if _, err := NewRecursiveMap(RecursiveParams{DataBlocks: 10, DataTree: tree, BlockBytes: 64, EntriesPerBlock: 0, OnChipEntries: 1}); err == nil {
		t.Fatal("accepted zero EntriesPerBlock")
	}
	if _, err := NewRecursiveMap(RecursiveParams{DataBlocks: 10, DataTree: tree, BlockBytes: 8, EntriesPerBlock: 4, OnChipEntries: 1}); err == nil {
		t.Fatal("accepted entries that overflow the block")
	}
	// Neither map ever shrinks to its on-chip budget.
	if _, err := NewRecursiveMap(RecursiveParams{DataBlocks: 10, DataTree: tree, BlockBytes: 64, EntriesPerBlock: 1, OnChipEntries: 1}); err == nil {
		t.Fatal("accepted one entry per block")
	}
	if _, err := NewRecursiveMap(RecursiveParams{DataBlocks: 10, DataTree: tree, BlockBytes: 64, EntriesPerBlock: 4, OnChipEntries: 0}); err == nil {
		t.Fatal("accepted a zero on-chip budget")
	}
}
