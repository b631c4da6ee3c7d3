package oram

import (
	"encoding/binary"
	"fmt"
)

// RecursiveMap is the recursive position map of Fletcher et al. (§4.4)
// as data structures: the data ORAM's PosMap stored as a chain of
// smaller ORAM trees in untrusted NVM. Each PosMap block packs
// EntriesPerBlock leaf labels (PackedLeaf/PackLeaf); tree 1 maps data
// addresses, tree 2 maps tree-1 blocks, and so on until a level is small
// enough to live on chip as the flat Top map.
//
// It holds construction and geometry only. internal/core walks the chain
// on every access, top-down: at each tree it accesses the parent block,
// reads the child's current leaf out of it and splices in the child's
// freshly drawn one — so the whole mapping stays consistent without any
// extra accesses, and the untrusted copy is rewritten on every access
// exactly as the paper's Rcr-Baseline does.
type RecursiveMap struct {
	DataTree        Tree
	EntriesPerBlock int
	// Levels holds the PosMap trees, Levels[0] being tree 1 (maps data
	// addresses). Each is an eagerly sealed oram.Controller whose block
	// payloads are packed leaf labels.
	Levels []*Controller
	// Top is the flat on-chip map for the smallest level: it maps block
	// indices of Levels[len(Levels)-1] to their leaves. When Levels is
	// empty, Top maps data addresses directly (recursion degenerated).
	Top *PosMap
}

// RecursiveParams configures the hierarchy.
type RecursiveParams struct {
	DataBlocks      uint64
	DataTree        Tree
	BlockBytes      int
	EntriesPerBlock int
	// OnChipEntries is the largest level kept as the flat Top map.
	OnChipEntries uint64
	StashEntries  int
	Seed          uint64
	Key           []byte
}

// NewRecursiveMap builds the hierarchy for the given data ORAM size.
func NewRecursiveMap(p RecursiveParams) (*RecursiveMap, error) {
	if p.EntriesPerBlock <= 0 {
		return nil, fmt.Errorf("oram: EntriesPerBlock must be positive")
	}
	if p.EntriesPerBlock*4 > p.BlockBytes {
		return nil, fmt.Errorf("oram: %d entries of 4 bytes exceed the %dB block", p.EntriesPerBlock, p.BlockBytes)
	}
	m := &RecursiveMap{DataTree: p.DataTree, EntriesPerBlock: p.EntriesPerBlock}

	seed := p.Seed
	n := p.DataBlocks
	for n > p.OnChipEntries {
		nBlocks := (n + uint64(p.EntriesPerBlock) - 1) / uint64(p.EntriesPerBlock)
		// Size a tree for nBlocks at <=50% utilization.
		levels := 2
		for {
			t := NewTree(levels, p.DataTree.Z)
			if t.Slots()/2 >= nBlocks {
				break
			}
			levels++
		}
		seed++
		ctl, err := New(Params{
			Levels:       levels,
			Z:            p.DataTree.Z,
			BlockBytes:   p.BlockBytes,
			StashEntries: maxInt(p.StashEntries, NewTree(levels, p.DataTree.Z).PathBlocks()*3),
			NumBlocks:    nBlocks,
			Seed:         seed,
			Key:          p.Key,
		})
		if err != nil {
			return nil, fmt.Errorf("oram: building posmap level %d: %w", len(m.Levels)+1, err)
		}
		m.Levels = append(m.Levels, ctl)
		n = nBlocks
	}
	// The flat Top map covers the smallest level's blocks using the
	// *child* tree's leaf space: Top entries are leaves in that child.
	var topTree Tree
	if len(m.Levels) == 0 {
		topTree = p.DataTree
	} else {
		topTree = m.Levels[len(m.Levels)-1].Tree
	}
	// Reuse the child's own PosMap as Top so initial placement matches.
	if len(m.Levels) == 0 {
		// Degenerate: behave like a flat map over data addresses. The
		// caller supplies the data controller's own PosMap in that case;
		// build one here for standalone use.
		m.Top = NewPosMapFromTree(p.DataBlocks, topTree, seed+1000)
	} else {
		m.Top = m.Levels[len(m.Levels)-1].PosMap
	}

	// Initialize level payloads: each level-i block must hold the actual
	// current leaves of its children (level i-1 blocks, or data blocks
	// for level 1). Level-1 initial content is synced by SyncLevel1 once
	// the data ORAM exists.
	for i := len(m.Levels) - 1; i >= 1; i-- {
		parent, child := m.Levels[i], m.Levels[i-1]
		if err := m.fillLevel(parent, child.PosMap); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// NewPosMapFromTree builds a flat posmap (helper for the degenerate case).
func NewPosMapFromTree(n uint64, t Tree, seed uint64) *PosMap {
	return newPosMapSeed(n, t, seed)
}

// SyncLevel1 writes the data ORAM's current PosMap into the level-1
// blocks (called once at construction of a recursive system, before any
// accesses).
func (m *RecursiveMap) SyncLevel1(dataMap *PosMap) error {
	if len(m.Levels) == 0 {
		return nil
	}
	return m.fillLevel(m.Levels[0], dataMap)
}

// fillLevel overwrites parent's block payloads with child leaves, in
// place in both tree image and stash (initialization only).
func (m *RecursiveMap) fillLevel(parent *Controller, child *PosMap) error {
	k := uint64(m.EntriesPerBlock)
	for blockIdx := uint64(0); blockIdx < parent.NumBlocks(); blockIdx++ {
		data := make([]byte, parent.Image.BlockBytes())
		for off := uint64(0); off < k; off++ {
			childIdx := blockIdx*k + off
			if childIdx >= child.Len() {
				break
			}
			PackLeaf(data, off, child.Lookup(Addr(childIdx)))
		}
		if err := initOverwrite(parent, Addr(blockIdx), data); err != nil {
			return err
		}
	}
	return nil
}

// initOverwrite rewrites a block's payload in the image without a
// protocol access (initialization only; finds the block wherever it is).
func initOverwrite(c *Controller, addr Addr, data []byte) error {
	l := c.PosMap.Lookup(addr)
	for _, bucket := range c.Tree.Path(l) {
		for z := 0; z < c.Tree.Z; z++ {
			b, err := OpenSlot(c.Engine, c.Image.Slot(bucket, z))
			if err != nil {
				return err
			}
			if b.Addr == addr && b.Leaf == l {
				b.Data = data
				c.Image.SetSlot(bucket, z, SealBlockInto(c.Engine, b, c.NextIV, make([]byte, headerBytes), make([]byte, len(b.Data))))
				return nil
			}
		}
	}
	return fmt.Errorf("oram: init overwrite could not locate block %d", addr)
}

// PackedLeaf returns the off-th leaf label packed into a PosMap block's
// payload.
func PackedLeaf(data []byte, off uint64) Leaf {
	return Leaf(binary.LittleEndian.Uint32(data[off*4:]))
}

// PackLeaf stores l as the off-th leaf label of a PosMap block's payload.
func PackLeaf(data []byte, off uint64, l Leaf) {
	binary.LittleEndian.PutUint32(data[off*4:], uint32(l))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newPosMapSeed builds a flat random posmap without exposing rng plumbing.
func newPosMapSeed(n uint64, t Tree, seed uint64) *PosMap {
	// Small local LCG is fine for the degenerate case.
	p := &PosMap{leaves: make([]Leaf, n), tree: t}
	s := seed*6364136223846793005 + 1442695040888963407
	for i := range p.leaves {
		s = s*6364136223846793005 + 1442695040888963407
		p.leaves[i] = Leaf((s >> 33) % uint64(t.Leaves()))
	}
	return p
}
