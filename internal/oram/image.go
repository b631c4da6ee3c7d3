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

	// Lazy-seal overlay (in-memory backend only). The controller that
	// writes a slot is the only party that later reads it, and it wrote
	// the plaintext itself — so in steady state the ciphertext is dead
	// work: sealed at eviction, decrypted back at the next load of the
	// bucket, overwritten again. With the overlay enabled, eviction
	// stores the plaintext descriptor (plus the pre-drawn IVs and seal
	// version, so the ciphertext is pinned), and Slot() materializes the
	// byte-identical sealed form only when someone actually observes it
	// (snapshots, integrity checks, equivalence tests). The protocol's
	// IV/version streams, and therefore every observable ciphertext, are
	// unchanged.
	lazy   bool
	engine *cryptoeng.Engine
	plain  []plainSlot // bucket*Z+z; live entries shadow the store
	seq    []uint64    // per-bucket write sequence (prefetch invalidation)
	// pending lists the slots with a queued deferred seal for the
	// persist-time barrier (MaterializePending). Only a durable backend
	// runs that barrier, so slots are queued only when barrier is set:
	// an in-memory image would add every slot's first lazy write to the
	// list and never drain it.
	barrier bool
	pending []uint64
}

// plainSlot is one deferred seal: what the slot's ciphertext WILL be.
// memo buffers hold the materialized form once some reader asks.
type plainSlot struct {
	live     bool
	sealed   bool // memoHdr/memoData hold the materialized ciphertext
	dummy    bool
	queued   bool // on the pending list (dedupes MaterializePending work)
	iv1      uint64
	iv2      uint64
	addr     Addr
	leaf     Leaf
	ver      uint32
	data     []byte // overlay-owned plaintext payload (real blocks)
	memoHdr  []byte
	memoData []byte
}

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
	img.plain = make([]plainSlot, img.Tree.Buckets()*uint64(img.Tree.Z))
	img.seq = make([]uint64, img.Tree.Buckets())
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
		for z := 0; z < img.Tree.Z; z++ {
			if ps := img.plainAt(bucket, z); ps.live {
				ps.materialize(img, bucket, z)
			}
		}
	}
	img.lazy = false
	img.plain, img.seq, img.engine = nil, nil, nil
}

// BucketSeq returns the bucket's write sequence number; any write to any
// slot of the bucket bumps it. Prefetched header decodes are valid only
// while the sequence they were taken under is unchanged.
func (img *Image) BucketSeq(bucket uint64) uint64 {
	if img.seq == nil {
		return 0
	}
	return img.seq[bucket]
}

func (img *Image) plainAt(bucket uint64, z int) *plainSlot {
	return &img.plain[bucket*uint64(img.Tree.Z)+uint64(z)]
}

// PutLazyBlock records a deferred seal of b at (bucket, z) under the
// pre-drawn IVs and the version already baked into b.Ver. The payload is
// copied into an overlay-owned buffer — callers recycle b.Data freely.
func (img *Image) PutLazyBlock(bucket uint64, z int, iv1, iv2 uint64, b Block) {
	ps := img.plainAt(bucket, z)
	ps.live, ps.sealed, ps.dummy = true, false, false
	ps.iv1, ps.iv2 = iv1, iv2
	ps.addr, ps.leaf, ps.ver = b.Addr, b.Leaf, b.Ver
	if cap(ps.data) < len(b.Data) {
		ps.data = make([]byte, len(b.Data))
	}
	ps.data = ps.data[:len(b.Data)]
	copy(ps.data, b.Data)
	img.enqueue(ps, bucket, z)
	img.seq[bucket]++
}

// PutLazyDummy records a deferred dummy seal at (bucket, z).
func (img *Image) PutLazyDummy(bucket uint64, z int, iv1, iv2 uint64) {
	ps := img.plainAt(bucket, z)
	ps.live, ps.sealed, ps.dummy = true, false, true
	ps.iv1, ps.iv2 = iv1, iv2
	img.enqueue(ps, bucket, z)
	img.seq[bucket]++
}

func (img *Image) enqueue(ps *plainSlot, bucket uint64, z int) {
	if img.barrier && !ps.queued {
		ps.queued = true
		img.pending = append(img.pending, bucket*uint64(img.Tree.Z)+uint64(z))
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
	zz := uint64(img.Tree.Z)
	for _, idx := range img.pending {
		ps := &img.plain[idx]
		ps.queued = false
		if ps.live && !ps.sealed {
			ps.materialize(img, idx/zz, int(idx%zz))
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
	ps := img.plainAt(bucket, z)
	if !ps.live {
		return 0, 0, 0, false, false
	}
	if ps.dummy {
		return DummyAddr, 0, 0, true, true
	}
	return ps.addr, ps.leaf, ps.ver, false, true
}

// PlainData returns the overlay's plaintext payload for a live real
// entry (nil otherwise). The buffer is overlay-owned: read, then copy.
func (img *Image) PlainData(bucket uint64, z int) []byte {
	if !img.lazy {
		return nil
	}
	ps := img.plainAt(bucket, z)
	if !ps.live || ps.dummy {
		return nil
	}
	return ps.data
}

// materialize runs the deferred seal into the entry's own memo buffers
// and mirrors the result into the store, so Slot() observers — snapshots,
// integrity readers, equivalence tests — see exactly the bytes the eager
// path would have produced. Memo buffers are entry-owned, never the
// store's: ordered evictions can alias one sealed buffer at two
// positions, so the overlay must not write through store buffers.
func (ps *plainSlot) materialize(img *Image, bucket uint64, z int) Slot {
	if !ps.sealed {
		if cap(ps.memoHdr) < headerBytes {
			ps.memoHdr = make([]byte, headerBytes)
		}
		if cap(ps.memoData) < img.blockB {
			ps.memoData = make([]byte, img.blockB)
		}
		var s Slot
		if ps.dummy {
			s = DummySlotIVs(img.engine, img.blockB, ps.iv1, ps.iv2, ps.memoHdr, ps.memoData)
		} else {
			b := Block{Addr: ps.addr, Leaf: ps.leaf, Ver: ps.ver, Data: ps.data}
			s = SealBlockIVs(img.engine, b, ps.iv1, ps.iv2, ps.memoHdr, ps.memoData)
		}
		ps.memoHdr, ps.memoData = s.SealedHeader, s.SealedData
		ps.sealed = true
		img.store.SetSlot(bucket, z, s)
	}
	return Slot{IV1: ps.iv1, IV2: ps.iv2, SealedHeader: ps.memoHdr, SealedData: ps.memoData}
}

// Slot returns the sealed slot at (bucket, z), materializing a deferred
// seal on first observation.
func (img *Image) Slot(bucket uint64, z int) Slot {
	if img.lazy {
		if ps := img.plainAt(bucket, z); ps.live {
			return ps.materialize(img, bucket, z)
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
		if ps := img.plainAt(bucket, z); ps.live {
			// The undo closure must capture stable bytes; materialize
			// into memo buffers, then detach them from the entry so a
			// later reuse of the slot can't scribble over the capture.
			prev = ps.materialize(img, bucket, z)
			ps.live = false
			ps.memoHdr, ps.memoData = nil, nil
		} else {
			prev = img.store.Slot(bucket, z)
		}
		img.seq[bucket]++
	} else {
		prev = img.store.Slot(bucket, z)
	}
	img.store.SetSlot(bucket, z, s)
	return func() {
		if img.lazy {
			img.plainAt(bucket, z).live = false
			img.seq[bucket]++
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
		img.plainAt(bucket, z).live = false
		img.seq[bucket]++
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
// the stash, exactly as a real warm-up would.
func (img *Image) InitBlocks(e *cryptoeng.Engine, blocks []Block, nextIV func() uint64) []Block {
	t := img.Tree
	used := make(map[uint64]int) // bucket -> slots consumed
	var unplaced []Block
	for _, b := range blocks {
		placed := false
		path := t.Path(b.Leaf)
		for k := t.L; k >= 0 && !placed; k-- {
			bucket := path[k]
			if used[bucket] < t.Z {
				img.store.SetSlot(bucket, used[bucket], SealBlock(e, b, nextIV))
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

// ReadBucket opens every slot of a bucket.
func (img *Image) ReadBucket(e *cryptoeng.Engine, bucket uint64) ([]Block, error) {
	out := make([]Block, 0, img.Tree.Z)
	for z := 0; z < img.Tree.Z; z++ {
		b, err := OpenSlot(e, img.Slot(bucket, z))
		if err != nil {
			return nil, fmt.Errorf("oram: bucket %d slot %d: %w", bucket, z, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// CountReal returns the number of non-dummy blocks in the whole tree
// (slow; for tests and consistency checks).
func (img *Image) CountReal(e *cryptoeng.Engine) (int, error) {
	n := 0
	for b := uint64(0); b < img.Tree.Buckets(); b++ {
		blocks, err := img.ReadBucket(e, b)
		if err != nil {
			return 0, err
		}
		for _, blk := range blocks {
			if !blk.Dummy() {
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
