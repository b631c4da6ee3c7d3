package oram

import (
	"fmt"

	"repro/internal/cryptoeng"
	"repro/internal/rng"
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
	// The overlay is three flat tables indexed by slot = bucket*Z+z, so a
	// bucket's Z headers are one contiguous run and its Z payloads another
	// — the shape of the controller's bucket-wide burst: plain holds the
	// fixed-size headers, arena the payloads (slot*blockB), and memo the
	// materialized ciphertext buffers. memo is allocated on the first
	// materialization: in-memory serving never materializes, and a durable
	// barrier does so for every slot it persists.
	//
	// A path write-back rewrites all Z slots of a bucket at once, most of
	// them with dummies, under 2Z consecutive IVs. dense records such a
	// write once per bucket (see denseBucket) instead of once per slot.
	lazy   bool
	engine *cryptoeng.Engine
	plain  []plainSlot
	arena  []byte
	memo   []sealedBuf
	dense  []denseBucket
	// pending lists the slots with a queued deferred seal for the
	// persist-time barrier (MaterializePending). Only a durable backend
	// runs that barrier, so slots are queued only when barrier is set:
	// an in-memory image would add every slot's first lazy write to the
	// list and never drain it.
	barrier bool
	pending []uint64
}

// plainSlot is one deferred seal: what the slot's ciphertext WILL be.
// 40 bytes, no pointers.
type plainSlot struct {
	iv1, iv2 uint64
	addr     Addr
	leaf     Leaf
	ver      uint32
	state    uint8
}

// denseBucket is the dense form of one bucket's overlay entries: what a
// whole-bucket write (PutLazyDummies, then PutLazyBlock per real slot)
// leaves behind. While on is set every slot of the bucket is live; slot
// z is a real block iff bit z of real is set, and only then is its
// plainSlot entry meaningful. A clear bit is a dummy under the IVs
// ivBase+2z+1 and ivBase+2z+2 whose plainSlot entry is stale and must
// not be read. Anything else that touches a slot of the bucket first
// expands it back into per-slot entries. 16 bytes, no pointers.
type denseBucket struct {
	ivBase uint64
	real   uint32
	on     bool
}

// maxDenseZ is the width of denseBucket.real: images with more slots per
// bucket keep per-slot entries throughout.
const maxDenseZ = 32

// plainSlot.state bits.
const (
	psLive   = 1 << iota // the entry shadows the store
	psSealed             // memo holds the entry's materialized ciphertext
	psDummy
	psQueued // on the pending list (dedupes MaterializePending work)
)

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
			st.SetSlot(i, z, DummySlot(e, blockBytes, nextIV))
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
	// the bucket is born dense, one record instead of Z.
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
	slots := img.Tree.Slots()
	img.plain = make([]plainSlot, slots)
	img.arena = make([]byte, slots*uint64(img.blockB))
	// The dense form is for in-memory stores only: a durable barrier
	// queues and seals slot by slot, so its image keeps per-slot entries.
	if inMemory && img.Tree.Z <= maxDenseZ {
		img.dense = make([]denseBucket, img.Tree.Buckets())
	}
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
	for bucket := range img.dense {
		img.expand(uint64(bucket))
	}
	for idx := range img.plain {
		if img.plain[idx].state&psLive != 0 {
			img.materialize(uint64(idx))
		}
	}
	img.lazy = false
	img.plain, img.arena, img.memo, img.dense, img.engine = nil, nil, nil, nil, nil
}

func (img *Image) slotIndex(bucket uint64, z int) uint64 {
	return bucket*uint64(img.Tree.Z) + uint64(z)
}

// payload is slot idx's arena cell, capped so that an append through the
// view can never reach the neighbouring slot.
func (img *Image) payload(idx uint64) []byte {
	off := idx * uint64(img.blockB)
	end := off + uint64(img.blockB)
	return img.arena[off:end:end]
}

// impliedDummy reports whether (bucket, z) is a dummy that exists only
// in its bucket's dense record: its per-slot entry is stale.
func (img *Image) impliedDummy(bucket uint64, z int) bool {
	return img.dense != nil && img.dense[bucket].on && img.dense[bucket].real>>uint(z)&1 == 0
}

// expand turns a dense bucket back into per-slot entries, writing out
// the dummies its record implied. Every per-slot operation that cannot
// keep the dense form calls it first, so the per-slot API means what it
// always did.
func (img *Image) expand(bucket uint64) {
	if img.dense == nil || !img.dense[bucket].on {
		return
	}
	d := &img.dense[bucket]
	d.on = false
	for z := 0; z < img.Tree.Z; z++ {
		if d.real>>uint(z)&1 == 0 {
			iv := d.ivBase + 2*uint64(z)
			img.plain[img.slotIndex(bucket, z)] = plainSlot{iv1: iv + 1, iv2: iv + 2, state: psLive | psDummy}
		}
	}
}

// RealSlots is the bucket-granular read: for a dense bucket it returns
// the mask of slots holding real blocks (bit z = slot z) and true —
// every other slot is a dummy and its entry must not be consulted. For
// any other bucket it returns false and the caller walks all Z slots.
func (img *Image) RealSlots(bucket uint64) (mask uint32, dense bool) {
	if img.dense == nil || !img.dense[bucket].on {
		return 0, false
	}
	return img.dense[bucket].real, true
}

// PutLazyDummies records a whole-bucket write: every slot of bucket a
// deferred dummy seal, slot z under ivBase+2z+1 and ivBase+2z+2 — the
// 2Z consecutive IVs a path write-back draws for the bucket in slot
// order. The bucket's real blocks follow through PutLazyBlock. Where the
// image keeps the dense form this is one 16-byte record and no per-slot
// entry is touched; elsewhere it is Z PutLazyDummy calls.
func (img *Image) PutLazyDummies(bucket uint64, ivBase uint64) {
	if img.dense != nil {
		img.dense[bucket] = denseBucket{ivBase: ivBase, on: true}
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
// freely. A dense bucket stays dense: the slot's bit is set and its
// entry becomes the authoritative one.
func (img *Image) PutLazyBlock(bucket uint64, z int, iv1, iv2 uint64, b Block) {
	if len(b.Data) != img.blockB {
		panic(fmt.Sprintf("oram: lazy seal of a %d-byte payload into %d-byte slots", len(b.Data), img.blockB))
	}
	idx := img.slotIndex(bucket, z)
	ps := &img.plain[idx]
	ps.state = ps.state&psQueued | psLive
	ps.iv1, ps.iv2 = iv1, iv2
	ps.addr, ps.leaf, ps.ver = b.Addr, b.Leaf, b.Ver
	copy(img.payload(idx), b.Data)
	if img.dense != nil {
		img.dense[bucket].real |= 1 << uint(z) // read only while the bucket is dense
	}
	img.enqueue(ps, idx)
}

// PutLazyDummy records a deferred dummy seal at (bucket, z).
func (img *Image) PutLazyDummy(bucket uint64, z int, iv1, iv2 uint64) {
	img.expand(bucket)
	idx := img.slotIndex(bucket, z)
	ps := &img.plain[idx]
	ps.state = ps.state&psQueued | psLive | psDummy
	ps.iv1, ps.iv2 = iv1, iv2
	img.enqueue(ps, idx)
}

func (img *Image) enqueue(ps *plainSlot, idx uint64) {
	if img.barrier && ps.state&psQueued == 0 {
		ps.state |= psQueued
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
		ps := &img.plain[idx]
		ps.state &^= psQueued
		if ps.state&(psLive|psSealed) == psLive {
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
	if img.impliedDummy(bucket, z) {
		return DummyAddr, 0, 0, true, true
	}
	ps := &img.plain[img.slotIndex(bucket, z)]
	if ps.state&psLive == 0 {
		return 0, 0, 0, false, false
	}
	if ps.state&psDummy != 0 {
		return DummyAddr, 0, 0, true, true
	}
	return ps.addr, ps.leaf, ps.ver, false, true
}

// PlainData returns the overlay's plaintext payload for a live real
// entry (nil otherwise). The view is overlay-owned: read, then copy.
func (img *Image) PlainData(bucket uint64, z int) []byte {
	if !img.lazy || img.impliedDummy(bucket, z) {
		return nil
	}
	idx := img.slotIndex(bucket, z)
	if img.plain[idx].state&(psLive|psDummy) != psLive {
		return nil
	}
	return img.payload(idx)
}

// materialize runs slot idx's deferred seal into its memo buffers and
// mirrors the result into the store, so Slot() observers — snapshots,
// integrity readers, equivalence tests — see exactly the bytes the eager
// path would have produced.
func (img *Image) materialize(idx uint64) Slot {
	if img.memo == nil {
		img.memo = make([]sealedBuf, len(img.plain))
	}
	ps, m := &img.plain[idx], &img.memo[idx]
	if ps.state&psSealed == 0 {
		if cap(m.hdr) < headerBytes {
			m.hdr = make([]byte, headerBytes)
		}
		if cap(m.data) < img.blockB {
			m.data = make([]byte, img.blockB)
		}
		var s Slot
		if ps.state&psDummy != 0 {
			s = DummySlotIVs(img.engine, img.blockB, ps.iv1, ps.iv2, m.hdr, m.data)
		} else {
			b := Block{Addr: ps.addr, Leaf: ps.leaf, Ver: ps.ver, Data: img.payload(idx)}
			s = SealBlockIVs(img.engine, b, ps.iv1, ps.iv2, m.hdr, m.data)
		}
		m.hdr, m.data = s.SealedHeader, s.SealedData
		ps.state |= psSealed
		zz := uint64(img.Tree.Z)
		img.store.SetSlot(idx/zz, int(idx%zz), s)
	}
	return Slot{IV1: ps.iv1, IV2: ps.iv2, SealedHeader: m.hdr, SealedData: m.data}
}

// Slot returns the sealed slot at (bucket, z), materializing a deferred
// seal on first observation.
func (img *Image) Slot(bucket uint64, z int) Slot {
	if img.lazy {
		img.expand(bucket)
		if idx := img.slotIndex(bucket, z); img.plain[idx].state&psLive != 0 {
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
		if ps := &img.plain[idx]; ps.state&psLive != 0 {
			// The undo closure must capture stable bytes; materialize
			// into memo buffers, then detach them from the entry so a
			// later reuse of the slot can't scribble over the capture.
			prev = img.materialize(idx)
			ps.state &^= psLive
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
			img.plain[img.slotIndex(bucket, z)].state &^= psLive
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
		img.plain[img.slotIndex(bucket, z)].state &^= psLive
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
					img.store.SetSlot(bucket, z, SealBlock(e, b, nextIV))
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

// NewIVSource returns a monotonically unique IV generator seeded from r.
// IVs must never repeat under one key; a 64-bit counter starting at a
// random offset suffices for simulation lifetimes.
func NewIVSource(r *rng.Rand) func() uint64 {
	ctr := r.Uint64()
	return func() uint64 {
		ctr++
		return ctr
	}
}
