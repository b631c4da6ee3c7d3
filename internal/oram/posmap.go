package oram

import (
	"fmt"

	"repro/internal/rng"
)

// PosMap is the position map: logical address -> leaf. This is the flat
// (non-recursive) representation kept on-chip or in a trusted NVM region;
// the recursive representation layers small ORAM trees on top of the same
// interface (see recursive.go).
type PosMap struct {
	leaves []Leaf
	tree   Tree
}

// NewPosMap creates a position map for n logical blocks with uniformly
// random initial leaves drawn from r.
func NewPosMap(n uint64, t Tree, r *rng.Rand) *PosMap {
	p := &PosMap{leaves: make([]Leaf, n), tree: t}
	for i := range p.leaves {
		p.leaves[i] = Leaf(r.Uint64n(t.Leaves()))
	}
	return p
}

// Len returns the number of mapped addresses.
func (p *PosMap) Len() uint64 { return uint64(len(p.leaves)) }

// Lookup returns the leaf currently assigned to addr.
func (p *PosMap) Lookup(addr Addr) Leaf {
	if uint64(addr) >= uint64(len(p.leaves)) {
		panic(fmt.Sprintf("oram: posmap lookup of addr %d out of range [0,%d)", addr, len(p.leaves)))
	}
	return p.leaves[addr]
}

// Put assigns leaf to addr.
func (p *PosMap) Put(addr Addr, leaf Leaf) {
	if uint64(addr) >= uint64(len(p.leaves)) {
		panic(fmt.Sprintf("oram: posmap put of addr %d out of range [0,%d)", addr, len(p.leaves)))
	}
	p.leaves[addr] = leaf
}

// Clone deep-copies the map (tests and recovery verification).
func (p *PosMap) Clone() *PosMap {
	out := &PosMap{leaves: make([]Leaf, len(p.leaves)), tree: p.tree}
	copy(out.leaves, p.leaves)
	return out
}

// TempPosMap is the temporary position map of the PS-ORAM controller
// (§4.1): it buffers the reassigned leaves of accessed blocks until the
// block's eviction merges the entry into the durable PosMap. It is
// volatile — a crash empties it by design, which is exactly what keeps
// the durable PosMap consistent with the durable tree.
type TempPosMap struct {
	cap     int
	idx     addrIndex
	entries []tempEntry // entries[p] belongs to the address at position p of idx
	seq     uint64
}

type tempEntry struct {
	leaf Leaf
	seq  uint64
}

// NewTempPosMap creates a temporary PosMap with the given capacity
// (C_TPos, 96 entries in Table 3).
func NewTempPosMap(capacity int) *TempPosMap {
	if capacity < 1 {
		panic(fmt.Sprintf("oram: temp posmap capacity %d must be positive", capacity))
	}
	return &TempPosMap{cap: capacity, idx: newAddrIndex(capacity), entries: make([]tempEntry, 0, capacity)}
}

// Len returns the number of pending entries.
func (t *TempPosMap) Len() int { return len(t.entries) }

// Capacity returns the entry limit.
func (t *TempPosMap) Capacity() int { return t.cap }

// Full reports whether another distinct address would overflow.
func (t *TempPosMap) Full() bool { return len(t.entries) >= t.cap }

// Lookup returns the pending leaf for addr, if any.
func (t *TempPosMap) Lookup(addr Addr) (Leaf, bool) {
	if p := t.idx.find(addr); p >= 0 {
		return t.entries[p].leaf, true
	}
	return 0, false
}

// Set records a pending remap. Overwriting an existing entry is allowed
// (the block was accessed again before its eviction); inserting a new
// entry into a full map panics — the controller must drain first.
func (t *TempPosMap) Set(addr Addr, leaf Leaf) (seq uint64) {
	p := t.idx.find(addr)
	if p < 0 {
		if t.Full() {
			panic("oram: temporary posmap overflow; controller must drain before remapping")
		}
		p = t.idx.add(addr)
		t.entries = append(t.entries, tempEntry{})
	}
	t.seq++
	t.entries[p] = tempEntry{leaf: leaf, seq: t.seq}
	return t.seq
}

// Delete drops the entry for addr (after the merge into the durable
// PosMap committed).
func (t *TempPosMap) Delete(addr Addr) {
	p := t.idx.find(addr)
	if p < 0 {
		return
	}
	t.idx.remove(p)
	t.entries = swapRemove(t.entries, p)
}

// Oldest returns the address of the oldest pending entry, or false when
// empty. Used to prioritize draining when the map runs full.
func (t *TempPosMap) Oldest() (Addr, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	best := 0
	for p, e := range t.entries {
		if e.seq < t.entries[best].seq {
			best = p
		}
	}
	return t.idx.keys[best], true
}

// Clear empties the map (crash: it is volatile).
func (t *TempPosMap) Clear() { t.Reset() }

// Reset empties the map while keeping its backing storage for reuse,
// so a steady-state clear/refill cycle does not allocate.
func (t *TempPosMap) Reset() {
	t.idx.reset()
	t.entries = t.entries[:0]
}
