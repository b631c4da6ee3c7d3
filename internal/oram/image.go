package oram

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/cryptoeng"
)

// Image is the functional NVM image of an ORAM tree: every bucket's
// sealed slots. It plays the role of the NVM-ORAM tree in the paper's
// figures; the mem package decides which mutations of it survive a
// crash, and the Storage backend decides where the slots physically
// live (process memory by default, a crash-consistent file store for
// real process-kill recovery).
type Image struct {
	Tree   Tree
	store  Storage
	blockB int

	// Lazy-seal overlay. The controller that writes a slot is the only
	// party that later reads it, and it wrote the plaintext itself — so in
	// steady state the ciphertext is dead work: sealed at eviction,
	// decrypted back at the next load of the bucket, overwritten again.
	// With the overlay enabled, eviction stores the plaintext descriptor
	// (plus the pre-drawn IVs and seal version, so the ciphertext is
	// pinned), and Slot() materializes the byte-identical sealed form only
	// when someone actually observes it (snapshots, integrity checks,
	// equivalence tests, a durable backend's persist barrier). The
	// protocol's IV/version streams, and therefore every observable
	// ciphertext, are unchanged.
	//
	// The overlay is laid out the way the controller fetches a bucket, as
	// one burst. recs holds one record per bucket (see the rec* constants):
	// the bucket's state and every slot's header, one 64-byte cache line
	// at Z = 4. cold holds, per slot = bucket*Z+z, what a path write-back
	// never needs: IVs that are not the bucket's implied pair, and the
	// state bits. arena holds the payloads (slot*blockB), and memo the
	// materialized ciphertext buffers. memo is allocated on the first
	// materialization: in-memory serving never materializes, and a durable
	// barrier does so for every slot it persists.
	//
	// A path write-back rewrites all Z slots of a bucket at once, most of
	// them with dummies, under 2Z consecutive IVs. While recordForm is set
	// a bucket records such a write in its record alone (the record form,
	// recOn) instead of slot by slot in cold.
	lazy       bool
	recordForm bool
	engine     *cryptoeng.Engine
	recW       uint64 // words per record: recHdr + 3Z
	recs       []uint32
	cold       []coldSlot
	arena      []byte
	memo       []sealedBuf
	// pending lists the slots with a queued deferred seal for the
	// persist-time barrier (MaterializePending). Only a durable backend
	// runs that barrier, so slots are queued only when barrier is set:
	// an in-memory image would add every slot's first lazy write to the
	// list and never drain it.
	barrier bool
	pending []uint64
}

// A bucket's record is recHdr+3Z 32-bit words, 16+12Z bytes, and the
// records start on a cache line:
//
//	words 0-1  ivBase (low word first)
//	word  2    real: bit z set = slot z holds a real block
//	word  3    explicit: bit z set = real slot z's IVs are in cold; recOn
//	recHdr+3z  slot z's header: addr, leaf, ver
//
// The headers are the overlay's headers in either form. While recOn is
// set the bucket is in record form, what a whole-bucket write
// (PutLazyDummies, then PutLazyBlock per real slot) leaves behind: every
// slot is live, a clear real bit is a dummy, every dummy and every real
// slot without its explicit bit is sealed under the implied IVs
// ivBase+2z+1 and ivBase+2z+2, and the cold state bits are stale and not
// read. Anything else that touches a slot of the bucket first expands it
// back into per-slot cold entries. Without recOn, real, explicit and
// ivBase mean nothing and cold is authoritative.
const (
	recIVBase   = 0
	recReal     = 2
	recExplicit = 3
	recHdr      = 4
	recOn       = 1 << 31
	// maxRecordZ is the width of the masks: images with more slots per
	// bucket keep per-slot entries throughout.
	maxRecordZ = 31
)

// coldSlot is the part of a deferred seal that the record does not hold.
// 24 bytes, no pointers.
type coldSlot struct {
	iv1, iv2 uint64
	state    uint8
}

// coldSlot.state bits.
const (
	psLive   = 1 << iota // the entry shadows the store
	psSealed             // memo holds the entry's materialized ciphertext
	psDummy
	psQueued // on the pending list (dedupes MaterializePending work)
)

// lineBytes is the cache-line size the records are aligned to.
const lineBytes = 64

// lineAligned returns n zeroed words, the first of them at the start of
// a cache line. The Go heap does not move objects, so the alignment
// holds for the slice's lifetime.
func lineAligned(n uint64) []uint32 {
	buf := make([]uint32, n+lineBytes/4-1)
	skip := uint64(lineBytes-uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%lineBytes) % lineBytes / 4
	return buf[skip : skip+n : skip+n]
}

// sealedBuf is one slot's materialized ciphertext. The buffers are
// overlay-owned, never the store's: ordered evictions can alias one
// sealed buffer at two positions, so the overlay must not write through
// store buffers.
type sealedBuf struct{ hdr, data []byte }

// NewImage allocates an in-memory image with every slot sealed as a
// dummy.
func NewImage(t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	return NewImageInto(newMemStorage(t), t, e, blockBytes, nextIV)
}

// NewImageInto builds a fresh image on an existing (empty) storage
// backend, sealing a dummy into every slot. The dummy-seal order is
// identical to NewImage's, so the IV stream — and therefore every
// ciphertext — is byte-for-byte the same regardless of backend.
func NewImageInto(st Storage, t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	img := &Image{Tree: t, store: st, blockB: blockBytes}
	for i := uint64(0); i < t.Buckets(); i++ {
		for z := 0; z < t.Z; z++ {
			st.SetSlot(i, z, DummySlotInto(e, blockBytes, nextIV, make([]byte, headerBytes), make([]byte, blockBytes)))
		}
	}
	return img
}

// newLazyImage is NewImage born lazy: the overlay is armed from the
// start and the initial dummy fill is recorded as deferred seals under
// the IVs NewImage would have drawn, in the same order. Whatever an
// observer later materializes is therefore byte-identical to the eager
// image, but construction runs no AES and allocates nothing per slot,
// and the in-memory store stays empty until something is observed.
func newLazyImage(t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	img := &Image{Tree: t, store: newMemStorage(t), blockB: blockBytes}
	img.EnableLazySeal(e)
	// A bucket's 2Z draws, in slot order, are what a path write-back
	// draws for it: when they come out consecutive (NextIV is a counter)
	// the bucket is born in record form, one record write instead of Z
	// cold ones.
	ivs := make([]uint64, 2*t.Z)
	for bucket := uint64(0); bucket < t.Buckets(); bucket++ {
		consecutive := true
		for j := range ivs {
			ivs[j] = nextIV()
			consecutive = consecutive && ivs[j] == ivs[0]+uint64(j)
		}
		if consecutive {
			img.PutLazyDummies(bucket, ivs[0]-1)
			continue
		}
		for z := 0; z < t.Z; z++ {
			img.PutLazyDummy(bucket, z, ivs[2*z], ivs[2*z+1])
		}
	}
	return img
}

// NewImageOn attaches an image to an already-populated storage backend
// without writing anything — the recovery path: the slots are whatever
// the durable store reconstructed.
func NewImageOn(st Storage, t Tree, blockBytes int) *Image {
	return &Image{Tree: t, store: st, blockB: blockBytes}
}

// Storage returns the backing store.
func (img *Image) Storage() Storage { return img.store }

// EnableLazySeal arms the overlay. Durable backends serialize the
// store's sealed bytes at their persist barrier, so a durable caller
// must run MaterializePending before every persist — that mirrors the
// overlay into the store and the seal is deferred only as far as the
// barrier, never past it.
func (img *Image) EnableLazySeal(e *cryptoeng.Engine) {
	img.lazy = true
	img.engine = e
	_, inMemory := img.store.(*memStorage)
	img.barrier = !inMemory
	// The record form is for in-memory stores only: a durable barrier
	// queues and seals slot by slot, so its image keeps per-slot entries.
	img.recordForm = inMemory && img.Tree.Z <= maxRecordZ
	slots := img.Tree.Slots()
	img.recW = recHdr + 3*uint64(img.Tree.Z)
	img.recs = lineAligned(img.Tree.Buckets() * img.recW)
	img.cold = make([]coldSlot, slots)
	img.arena = make([]byte, slots*uint64(img.blockB))
}

// LazySeal reports whether the overlay is armed.
func (img *Image) LazySeal() bool { return img.lazy }

// DisableLazySeal materializes every live deferred seal into the store
// and disarms the overlay: afterwards the image behaves exactly like an
// eager one, with the store holding the same bytes the eager path would
// have written. Equivalence tests use it to compare a lazy image against
// an eager reference slot-by-slot.
func (img *Image) DisableLazySeal() {
	if !img.lazy {
		return
	}
	for bucket := uint64(0); bucket < img.Tree.Buckets(); bucket++ {
		img.expand(bucket)
	}
	for idx := range img.cold {
		if img.cold[idx].state&psLive != 0 {
			img.materialize(uint64(idx))
		}
	}
	img.lazy, img.recordForm = false, false
	img.recs, img.cold, img.arena, img.memo, img.engine = nil, nil, nil, nil, nil
}

func (img *Image) slotIndex(bucket uint64, z int) uint64 {
	return bucket*uint64(img.Tree.Z) + uint64(z)
}

// record is bucket's record (recW words).
func (img *Image) record(bucket uint64) []uint32 {
	o := bucket * img.recW
	return img.recs[o : o+img.recW : o+img.recW]
}

// impliedIVs is the IV pair slot z of a record-form bucket is sealed
// under unless its explicit bit says otherwise.
func impliedIVs(r []uint32, z int) (iv1, iv2 uint64) {
	base := (uint64(r[recIVBase]) | uint64(r[recIVBase+1])<<32) + 2*uint64(z)
	return base + 1, base + 2
}

// payload is slot idx's arena cell, capped so that an append through the
// view can never reach the neighbouring slot.
func (img *Image) payload(idx uint64) []byte {
	off := idx * uint64(img.blockB)
	end := off + uint64(img.blockB)
	return img.arena[off:end:end]
}

// state is the state bits of slot z of the bucket with record r: the
// record answers while the bucket is in record form, cold otherwise.
func (img *Image) state(r []uint32, idx uint64, z int) uint8 {
	if r[recExplicit]&recOn == 0 {
		return img.cold[idx].state
	}
	if r[recReal]>>uint(z)&1 == 0 {
		return psLive | psDummy
	}
	return psLive
}

// expand turns a record-form bucket back into per-slot cold entries:
// every slot's IVs and state bits are written out. Every per-slot
// operation that cannot keep the record form calls it first, so the
// per-slot API means what it always did.
func (img *Image) expand(bucket uint64) {
	if !img.recordForm {
		return
	}
	r := img.record(bucket)
	if r[recExplicit]&recOn == 0 {
		return
	}
	for z := 0; z < img.Tree.Z; z++ {
		idx := img.slotIndex(bucket, z)
		cs := &img.cold[idx]
		if r[recExplicit]>>uint(z)&1 == 0 {
			cs.iv1, cs.iv2 = impliedIVs(r, z)
		}
		// The slot was rewritten since any earlier materialization, and
		// an image that keeps the record form never queues.
		cs.state = img.state(r, idx, z)
	}
	r[recExplicit] = 0
}

// RealSlots is the bucket-granular read: for a record-form bucket it
// returns the mask of slots holding real blocks (bit z = slot z) and
// true — every other slot is a dummy and its entry must not be
// consulted. For any other bucket it returns false and the caller walks
// all Z slots.
func (img *Image) RealSlots(bucket uint64) (mask uint32, ok bool) {
	if !img.recordForm {
		return 0, false
	}
	r := img.record(bucket)
	if r[recExplicit]&recOn == 0 {
		return 0, false
	}
	return r[recReal], true
}

// Gather reads, ahead of a load walk over path, the lines that walk is
// about to read, so that their cache misses overlap instead of arriving
// one after another: first every bucket's record, whose addresses follow
// from path alone, then for every real slot of a record-form bucket its
// payload's first byte and pm's entry for its address. It changes
// nothing and allocates nothing; the returned value is a fold of what it
// read, for the caller to keep so the loads are not discarded. It is a
// no-op, returning 0, on an image without the record form.
func (img *Image) Gather(path []uint64, pm *PosMap) (fold uint64) {
	if !img.recordForm {
		return 0
	}
	w := img.recW
	for _, bucket := range path {
		fold += uint64(img.recs[bucket*w+recExplicit]) + uint64(img.recs[bucket*w+w-1])
	}
	z := uint64(img.Tree.Z)
	for _, bucket := range path {
		r := img.record(bucket)
		if r[recExplicit]&recOn == 0 {
			continue
		}
		for m := r[recReal]; m != 0; m &= m - 1 {
			s := uint64(bits.TrailingZeros32(m))
			fold += uint64(img.arena[(bucket*z+s)*uint64(img.blockB)])
			if addr := uint64(r[recHdr+3*s]); addr < uint64(len(pm.leaves)) {
				fold += uint64(pm.leaves[addr])
			}
		}
	}
	return fold
}

// PutLazyDummies records a whole-bucket write: every slot of bucket a
// deferred dummy seal, slot z under ivBase+2z+1 and ivBase+2z+2 — the
// 2Z consecutive IVs a path write-back draws for the bucket in slot
// order. The bucket's real blocks follow through PutLazyBlock. Where the
// image keeps the record form this is a write of the bucket's record and
// no cold entry is touched; elsewhere it is Z PutLazyDummy calls.
func (img *Image) PutLazyDummies(bucket uint64, ivBase uint64) {
	if img.recordForm {
		r := img.record(bucket)
		r[recIVBase], r[recIVBase+1] = uint32(ivBase), uint32(ivBase>>32)
		r[recReal], r[recExplicit] = 0, recOn
		return
	}
	for z := 0; z < img.Tree.Z; z++ {
		iv := ivBase + 2*uint64(z)
		img.PutLazyDummy(bucket, z, iv+1, iv+2)
	}
}

// PutLazyBlock records a deferred seal of b at (bucket, z) under the
// pre-drawn IVs and the version already baked into b.Ver. The payload
// (exactly BlockBytes) is copied into the arena — callers recycle b.Data
// freely. A record-form bucket keeps its form: the slot's real bit is
// set, and unless the IVs are the slot's implied pair, so is its
// explicit bit, with the IVs in cold.
func (img *Image) PutLazyBlock(bucket uint64, z int, iv1, iv2 uint64, b Block) {
	if len(b.Data) != img.blockB {
		panic(fmt.Sprintf("oram: lazy seal of a %d-byte payload into %d-byte slots", len(b.Data), img.blockB))
	}
	if b.Addr > math.MaxUint32 {
		panic(fmt.Sprintf("oram: lazy seal of addr %d, beyond the record's 32 bits", b.Addr))
	}
	idx := img.slotIndex(bucket, z)
	r := img.record(bucket)
	h := recHdr + 3*z
	r[h], r[h+1], r[h+2] = uint32(b.Addr), uint32(b.Leaf), b.Ver
	copy(img.payload(idx), b.Data)
	cs := &img.cold[idx]
	if r[recExplicit]&recOn != 0 {
		bit := uint32(1) << uint(z)
		r[recReal] |= bit
		if i1, i2 := impliedIVs(r, z); iv1 == i1 && iv2 == i2 {
			r[recExplicit] &^= bit
		} else {
			r[recExplicit] |= bit
			cs.iv1, cs.iv2 = iv1, iv2
		}
		return
	}
	cs.state = cs.state&psQueued | psLive
	cs.iv1, cs.iv2 = iv1, iv2
	img.enqueue(cs, idx)
}

// PutLazyDummy records a deferred dummy seal at (bucket, z).
func (img *Image) PutLazyDummy(bucket uint64, z int, iv1, iv2 uint64) {
	img.expand(bucket)
	idx := img.slotIndex(bucket, z)
	cs := &img.cold[idx]
	cs.state = cs.state&psQueued | psLive | psDummy
	cs.iv1, cs.iv2 = iv1, iv2
	img.enqueue(cs, idx)
}

func (img *Image) enqueue(cs *coldSlot, idx uint64) {
	if img.barrier && cs.state&psQueued == 0 {
		cs.state |= psQueued
		img.pending = append(img.pending, idx)
	}
}

// MaterializePending is the persist-time materialization barrier: every
// deferred seal recorded since the last call is sealed into its memo
// buffers and mirrored into the store (marking the durable backend's
// chunks dirty), so the store holds exactly the bytes the eager path
// would have written. Entries that died (overwritten via SetSlot/
// PutSlot) or were already materialized by a reader are skipped. A slot
// rewritten N times within one group is sealed once, with its final
// content — the amortization that makes lazy sealing pay off under
// group commit. No-op when the overlay is off.
func (img *Image) MaterializePending() {
	if !img.lazy {
		return
	}
	for _, idx := range img.pending {
		cs := &img.cold[idx]
		cs.state &^= psQueued
		if cs.state&(psLive|psSealed) == psLive {
			img.materialize(idx)
		}
	}
	img.pending = img.pending[:0]
}

// PlainHeader is the overlay fast path for header inspection: if the slot
// has a live deferred seal, its header fields come back with ok=true and
// zero AES work.
func (img *Image) PlainHeader(bucket uint64, z int) (addr Addr, leaf Leaf, ver uint32, dummy, ok bool) {
	if !img.lazy {
		return 0, 0, 0, false, false
	}
	r := img.record(bucket)
	st := img.state(r, img.slotIndex(bucket, z), z)
	if st&psLive == 0 {
		return 0, 0, 0, false, false
	}
	if st&psDummy != 0 {
		return DummyAddr, 0, 0, true, true
	}
	h := recHdr + 3*z
	return Addr(r[h]), Leaf(r[h+1]), r[h+2], false, true
}

// PlainData returns the overlay's plaintext payload for a live real
// entry (nil otherwise). The view is overlay-owned: read, then copy.
func (img *Image) PlainData(bucket uint64, z int) []byte {
	if !img.lazy {
		return nil
	}
	idx := img.slotIndex(bucket, z)
	if img.state(img.record(bucket), idx, z)&(psLive|psDummy) != psLive {
		return nil
	}
	return img.payload(idx)
}

// materialize runs slot idx's deferred seal into its memo buffers and
// mirrors the result into the store, so Slot() observers — snapshots,
// integrity readers, equivalence tests — see exactly the bytes the eager
// path would have produced. The slot's bucket is not in record form.
func (img *Image) materialize(idx uint64) Slot {
	if img.memo == nil {
		img.memo = make([]sealedBuf, len(img.cold))
	}
	cs, m := &img.cold[idx], &img.memo[idx]
	if cs.state&psSealed == 0 {
		if cap(m.hdr) < headerBytes {
			m.hdr = make([]byte, headerBytes)
		}
		if cap(m.data) < img.blockB {
			m.data = make([]byte, img.blockB)
		}
		zz := uint64(img.Tree.Z)
		bucket, z := idx/zz, int(idx%zz)
		var s Slot
		if cs.state&psDummy != 0 {
			s = DummySlotIVs(img.engine, img.blockB, cs.iv1, cs.iv2, m.hdr, m.data)
		} else {
			r, h := img.record(bucket), recHdr+3*z
			b := Block{Addr: Addr(r[h]), Leaf: Leaf(r[h+1]), Ver: r[h+2], Data: img.payload(idx)}
			s = SealBlockIVs(img.engine, b, cs.iv1, cs.iv2, m.hdr, m.data)
		}
		m.hdr, m.data = s.SealedHeader, s.SealedData
		cs.state |= psSealed
		img.store.SetSlot(bucket, z, s)
	}
	return Slot{IV1: cs.iv1, IV2: cs.iv2, SealedHeader: m.hdr, SealedData: m.data}
}

// Slot returns the sealed slot at (bucket, z), materializing a deferred
// seal on first observation.
func (img *Image) Slot(bucket uint64, z int) Slot {
	if img.lazy {
		img.expand(bucket)
		if idx := img.slotIndex(bucket, z); img.cold[idx].state&psLive != 0 {
			return img.materialize(idx)
		}
	}
	return img.store.Slot(bucket, z)
}

// SetSlot overwrites the sealed slot at (bucket, z) and returns an undo
// closure restoring the previous content (used for crash rollback of
// in-flight writes).
func (img *Image) SetSlot(bucket uint64, z int, s Slot) (undo func()) {
	var prev Slot
	if img.lazy {
		img.expand(bucket)
		idx := img.slotIndex(bucket, z)
		if cs := &img.cold[idx]; cs.state&psLive != 0 {
			// The undo closure must capture stable bytes; materialize
			// into memo buffers, then detach them from the entry so a
			// later reuse of the slot can't scribble over the capture.
			prev = img.materialize(idx)
			cs.state &^= psLive
			img.memo[idx] = sealedBuf{}
		} else {
			prev = img.store.Slot(bucket, z)
		}
	} else {
		prev = img.store.Slot(bucket, z)
	}
	img.store.SetSlot(bucket, z, s)
	return func() {
		if img.lazy {
			img.expand(bucket) // a whole-bucket write may have come in between
			img.cold[img.slotIndex(bucket, z)].state &^= psLive
		}
		img.store.SetSlot(bucket, z, prev)
	}
}

// PutSlot overwrites the sealed slot at (bucket, z) and returns the
// previous content so the caller can recycle its buffers. Unlike
// SetSlot there is no undo closure: callers that need crash rollback
// keep using SetSlot.
//
// Under a live overlay entry the returned Slot is the stale store
// content from before the deferred write — callers in lazy mode run
// with buffer recycling off, so it is never reused.
func (img *Image) PutSlot(bucket uint64, z int, s Slot) (old Slot) {
	if img.lazy {
		img.expand(bucket)
		img.cold[img.slotIndex(bucket, z)].state &^= psLive
	}
	old = img.store.Slot(bucket, z)
	img.store.SetSlot(bucket, z, s)
	return old
}

// BlockBytes returns the payload size of each block.
func (img *Image) BlockBytes() int { return img.blockB }

// InitBlocks seals the given blocks into the tree, each on the path of
// its leaf, filling from the leaf level upward. It is used to build an
// initial ORAM state with real resident blocks (plus the already-sealed
// dummies everywhere else). Blocks whose paths are already full are
// returned unplaced — at high utilization the controller starts them in
// the stash, exactly as a real warm-up would. On a lazy image the seals
// are deferred like any other write, under the same IV draws.
func (img *Image) InitBlocks(e *cryptoeng.Engine, blocks []Block, nextIV func() uint64) []Block {
	t := img.Tree
	used := make([]int32, t.Buckets()) // bucket -> slots consumed
	path := make([]uint64, 0, t.Levels())
	var unplaced []Block
	for _, b := range blocks {
		placed := false
		path = t.PathInto(path[:0], b.Leaf)
		for k := t.L; k >= 0 && !placed; k-- {
			bucket := path[k]
			if z := int(used[bucket]); z < t.Z {
				if img.lazy {
					iv1, iv2 := nextIV(), nextIV()
					img.PutLazyBlock(bucket, z, iv1, iv2, b)
				} else {
					img.store.SetSlot(bucket, z, SealBlockInto(e, b, nextIV, make([]byte, headerBytes), make([]byte, len(b.Data))))
				}
				used[bucket]++
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	return unplaced
}

// ReadBucket opens every slot of a bucket. A live overlay entry is read
// where it lies — sealing it only to decrypt it again would materialize
// the whole tree under a full scan (Pool.Invariants) for nothing; the
// result is what OpenSlot(Slot()) returns either way, in fresh buffers.
func (img *Image) ReadBucket(e *cryptoeng.Engine, bucket uint64) ([]Block, error) {
	out := make([]Block, 0, img.Tree.Z)
	for z := 0; z < img.Tree.Z; z++ {
		if addr, leaf, ver, dummy, ok := img.PlainHeader(bucket, z); ok {
			b := Block{Addr: addr, Leaf: leaf, Ver: ver, Data: make([]byte, img.blockB)}
			if !dummy {
				copy(b.Data, img.PlainData(bucket, z))
			}
			out = append(out, b)
			continue
		}
		b, err := OpenSlot(e, img.store.Slot(bucket, z))
		if err != nil {
			return nil, fmt.Errorf("oram: bucket %d slot %d: %w", bucket, z, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// CountReal returns the number of non-dummy blocks in the whole tree
// (slow; for tests and consistency checks). Only headers are opened.
func (img *Image) CountReal(e *cryptoeng.Engine) (int, error) {
	n := 0
	for bucket := uint64(0); bucket < img.Tree.Buckets(); bucket++ {
		for z := 0; z < img.Tree.Z; z++ {
			addr, _, _, _, ok := img.PlainHeader(bucket, z)
			if !ok {
				var err error
				if addr, _, _, err = OpenSlotHeader(e, img.store.Slot(bucket, z)); err != nil {
					return 0, fmt.Errorf("oram: bucket %d slot %d: %w", bucket, z, err)
				}
			}
			if addr != DummyAddr {
				n++
			}
		}
	}
	return n, nil
}
