package oram

import "math/bits"

// addrIndex is the address table behind the two small on-chip lookup
// structures (the stash and the temporary PosMap): a set of distinct
// addresses, each holding a position in a dense array the owner keeps
// alongside. keys is that dense order — position p belongs to keys[p],
// positions are always 0..len(keys)-1 — and slots is an open-addressed
// index over it: multiplicative hash, linear probing, -1 for empty,
// at most half full.
//
// Invariants:
//   - every position appears in exactly one slot, and walking from the
//     home slot of keys[p] reaches that slot before any empty one;
//   - removal keeps the order dense by moving the last position into the
//     hole, and the owner mirrors exactly that move on its own array.
type addrIndex struct {
	keys  []Addr
	slots []int32
	shift uint // 64 - log2(len(slots))
}

// newAddrIndex sizes the table so that n addresses fit without growing.
func newAddrIndex(n int) addrIndex {
	size := 16
	for size < 2*n {
		size *= 2
	}
	x := addrIndex{keys: make([]Addr, 0, n)}
	x.resize(size)
	return x
}

func (x *addrIndex) resize(size int) {
	x.slots = make([]int32, size)
	for i := range x.slots {
		x.slots[i] = -1
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for p, a := range x.keys {
		x.link(a, int32(p))
	}
}

// home is a's first probe slot: the top bits of a Fibonacci multiply, so
// that the sequential and the clustered addresses ORAM workloads are full
// of spread over the table.
func (x *addrIndex) home(a Addr) uint32 {
	return uint32(uint64(a) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns a's position, or -1.
func (x *addrIndex) find(a Addr) int {
	mask := uint32(len(x.slots) - 1)
	for h := x.home(a); ; h = (h + 1) & mask {
		p := x.slots[h]
		if p < 0 {
			return -1
		}
		if x.keys[p] == a {
			return int(p)
		}
	}
}

// add appends a, which must be absent, and returns its position: the
// previous len(keys).
func (x *addrIndex) add(a Addr) int {
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	p := len(x.keys)
	x.keys = append(x.keys, a)
	x.link(a, int32(p))
	return p
}

// link stores position p in the first free slot of a's probe sequence.
func (x *addrIndex) link(a Addr, p int32) {
	mask := uint32(len(x.slots) - 1)
	h := x.home(a)
	for x.slots[h] >= 0 {
		h = (h + 1) & mask
	}
	x.slots[h] = p
}

// slotOf returns the slot holding position p.
func (x *addrIndex) slotOf(p int) uint32 {
	mask := uint32(len(x.slots) - 1)
	h := x.home(x.keys[p])
	for x.slots[h] != int32(p) {
		h = (h + 1) & mask
	}
	return h
}

// remove deletes position p; the last position takes its place.
func (x *addrIndex) remove(p int) {
	// slotOf starts from the home of keys[p]: resolve the hole before the
	// move below overwrites that key.
	hole := x.slotOf(p)
	last := len(x.keys) - 1
	if p != last {
		x.slots[x.slotOf(last)] = int32(p)
		x.keys[p] = x.keys[last]
	}
	x.keys = x.keys[:last]

	// Backward-shift deletion: pull each later entry of the cluster into
	// the hole unless its home lies cyclically inside (hole, j], in which
	// case its probe sequence does not pass through the hole.
	mask := uint32(len(x.slots) - 1)
	for j := (hole + 1) & mask; x.slots[j] >= 0; j = (j + 1) & mask {
		k := x.home(x.keys[x.slots[j]])
		if hole <= j && (hole < k && k <= j) || hole > j && (hole < k || k <= j) {
			continue
		}
		x.slots[hole] = x.slots[j]
		hole = j
	}
	x.slots[hole] = -1
}

// swapRemove is remove's move mirrored on an owner's dense slice.
func swapRemove[T any](dense []T, p int) []T {
	last := len(dense) - 1
	dense[p] = dense[last]
	var zero T
	dense[last] = zero // drop the reference the tail would keep alive
	return dense[:last]
}

// reset empties the table, keeping its storage.
func (x *addrIndex) reset() {
	x.keys = x.keys[:0]
	for i := range x.slots {
		x.slots[i] = -1
	}
}
