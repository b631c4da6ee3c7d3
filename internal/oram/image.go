package oram

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

	// Overlay. The controller that writes a slot is the only party that
	// later reads it, and it wrote the plaintext itself — so the
	// ciphertext is dead work until someone else looks. Every protocol
	// write stores the plaintext descriptor (plus the pre-drawn IVs and
	// seal version, so the ciphertext is pinned), and Slot() materializes
	// the sealed form only when someone actually observes it (snapshots,
	// integrity checks, a durable backend's persist barrier). A ciphertext
	// is a pure function of key, IVs, version and plaintext, so when it is
	// computed changes no observable bit.
	//
	// The overlay is laid out the way the controller fetches a bucket, as
	// one burst, and holds bytes only for what its slots hold. recs holds
	// one record per bucket (see the rec* constants): the bucket's state
	// and every slot's header, one 64-byte cache line at Z = 4. cell
	// names, per slot = bucket*Z+z, the payload cell of a slot that holds a
	// real block, stale copies included (0 = none: a dummy's ciphertext is
	// a function of key and IVs alone). The cells are BlockBytes rounded
	// up to a cache line, cell h at h*cellB in cells, and handed out from a
	// LIFO free list, then from a bump cursor (see ownCell). The three
	// tables live in the image's region, one mapping outside the Go heap
	// that Close frees (see newImage). cold holds, per slot, what a
	// path write-back never needs: IVs that are not the bucket's implied
	// pair, and the state bits. An image that keeps the record form holds
	// cold entries only where a slot needs one, in pages of coldPageBuckets
	// buckets allocated on first need and released once no slot of the
	// page needs one (see holdCold); any other image keeps every page.
	// memo holds the materialized ciphertext buffers, allocated on the
	// first materialization: in-memory serving never materializes, and a
	// durable barrier does so for every slot it persists.
	//
	// A path write-back rewrites all Z slots of a bucket at once, most of
	// them with dummies, under 2Z consecutive IVs. While recordForm is set
	// a bucket records such a write in its record alone (the record form,
	// recOn) instead of slot by slot in cold.
	recordForm bool
	engine     *cryptoeng.Engine
	recW       uint64 // words per record: recHdr + 3Z
	initBase   uint64 // the IV base of the initial placements (see impliedIVs)
	region     *region
	recs       []uint32
	cell       []uint32
	cells      []byte
	cellB      uint64 // bytes per cell
	free       []uint32
	next       uint32 // the lowest handle never handed out
	cold       [][]coldSlot
	coldUse    []int32 // per page: the slots that need their entry (record form only)
	memo       []sealedBuf
	// pending lists the slots with a queued deferred seal for the
	// persist-time barrier (MaterializePending). Only a durable backend
	// runs that barrier, so slots are queued only when barrier is set:
	// an in-memory image would add every slot's first write to the list
	// and never drain it.
	barrier bool
	pending []uint64

	// The undo log (PutLazyUndoable): one entry per undoable write, oldest
	// first. undoData holds the previous payloads of entries that replaced
	// a real block, undoStored the store's slots of entries that replaced
	// no overlay entry. All three are reused: a log that fills and empties
	// once per access stops allocating after the first.
	undo       []undoEntry
	undoData   []byte
	undoStored []Slot
}

// undoEntry is one undoable write: what slot idx held before it, and the
// cycle at which the write completes. A write into a batch that has not
// committed completes at NeverDone. No pointers.
type undoEntry struct {
	idx, done uint64
	iv1, iv2  uint64
	hdr       [3]uint32 // addr, leaf, ver
	// off locates the previous content the entry saved: a real block's
	// payload in undoData, or the store's slot in undoStored.
	off   uint32
	state uint8 // the previous entry's psLive and psDummy bits
}

// NeverDone is the completion cycle of a logged write that completes only
// when its caller says so: a write into a batch that has not committed.
const NeverDone = math.MaxUint64

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
// slot without its explicit bit is sealed under its implied IVs
// (ivBase+2z+1 and ivBase+2z+2, or for an initial placement the pair
// its address implies; see impliedIVs), and only the explicit slots have
// a cold entry, of which only the IVs are read. Anything else that touches a
// slot of the bucket first expands it back into per-slot cold entries.
// Without recOn, real, explicit and ivBase mean nothing and cold is
// authoritative.
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

const (
	// lineBytes is the cache-line size the records and cells are aligned
	// to.
	lineBytes = 64
	// A page of cold entries covers coldPageBuckets consecutive buckets.
	coldPageShift   = 6
	coldPageBuckets = 1 << coldPageShift
)

// sealedBuf is one slot's materialized ciphertext. The buffers are
// overlay-owned, never the store's: what a PutSlot caller stored belongs
// to the caller, so the overlay must not seal into store buffers.
type sealedBuf struct{ hdr, data []byte }

// NewImage allocates an in-memory image with a dummy in every slot (see
// NewImageInto), and panics if its region cannot be mapped: tests build
// images this way; New returns the error instead.
func NewImage(t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) *Image {
	img, err := NewImageInto(newMemStorage(t), t, e, blockBytes, nextIV)
	if err != nil {
		panic(err)
	}
	return img
}

// NewImageInto builds a fresh image on an existing (empty) storage
// backend, born lazy: every slot holds a deferred dummy seal, bucket by
// bucket and slot by slot, each under the next two IVs of nextIV.
// Construction runs no AES and writes nothing to the store; a slot is
// sealed when it is observed, or, on a durable backend, at the first
// MaterializePending. The last IV drawn is the image's initBase.
func NewImageInto(st Storage, t Tree, e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) (*Image, error) {
	// The record form is for in-memory stores only: a durable barrier
	// queues and seals slot by slot, so its image keeps per-slot entries.
	_, inMemory := st.(*memStorage)
	img, err := newImage(st, t, e, blockBytes, inMemory && t.Z <= maxRecordZ)
	if err != nil {
		return nil, err
	}
	// A bucket's 2Z draws, in slot order, are what a path write-back
	// draws for it: when they come out consecutive (NextIV is a counter)
	// the bucket is born in record form, one record write instead of Z
	// cold ones.
	ivs := make([]uint64, 2*t.Z)
	for bucket := uint64(0); bucket < t.Buckets(); bucket++ {
		if img.recordForm {
			// Every bucket starts in the form, holding no cold entry, so
			// that the writes below count the entries they take.
			img.record(bucket)[recExplicit] = recOn
		}
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
	img.initBase = ivs[len(ivs)-1]
	return img, nil
}

// NewImageOn attaches an image to an already-populated storage backend
// without writing anything — the recovery path: no slot has an overlay
// entry, so every slot reads as whatever the store holds until it is
// rewritten. An attached image keeps per-slot entries.
//
// Durable backends serialize the store's sealed bytes at their persist
// barrier, so a durable caller must run MaterializePending before every
// persist: that mirrors the overlay into the store, and a seal is
// deferred only as far as the barrier, never past it.
func NewImageOn(st Storage, t Tree, e *cryptoeng.Engine, blockBytes int) (*Image, error) {
	return newImage(st, t, e, blockBytes, false)
}

// newImage lays the record table, the cell handles and the payload cells
// out in one region, each table from a line: a slot owns at most one
// cell, so the region holds a cell for every slot, plus the unused cell 0,
// and only the cells the image hands out are ever touched.
func newImage(st Storage, t Tree, e *cryptoeng.Engine, blockBytes int, recordForm bool) (*Image, error) {
	if t.Slots() >= math.MaxUint32 {
		return nil, fmt.Errorf("oram: a tree of %d slots is beyond the 32-bit cell handles", t.Slots())
	}
	_, inMemory := st.(*memStorage)
	img := &Image{Tree: t, store: st, blockB: blockBytes, engine: e, barrier: !inMemory, recordForm: recordForm}
	line := func(n uint64) uint64 { return (n + lineBytes - 1) / lineBytes * lineBytes }
	img.recW = recHdr + 3*uint64(t.Z)
	img.cellB = line(uint64(blockBytes))
	recB := 4 * t.Buckets() * img.recW
	cellAt := line(recB)
	cellsAt := cellAt + line(4*t.Slots())
	var err error
	if img.region, err = newRegion(cellsAt + (t.Slots()+1)*img.cellB); err != nil {
		return nil, err
	}
	mem := img.region.mem
	img.recs = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), recB/4)
	img.cell = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[cellAt])), t.Slots())
	img.cells = mem[cellsAt:]
	img.next = 1 // a zero handle means no cell
	pages := (t.Buckets() + coldPageBuckets - 1) >> coldPageShift
	img.cold = make([][]coldSlot, pages)
	if recordForm {
		img.coldUse = make([]int32, pages)
		return img, nil
	}
	n := uint64(coldPageBuckets * t.Z)
	all := make([]coldSlot, pages*n)
	for p := range img.cold {
		img.cold[p] = all[uint64(p)*n : uint64(p+1)*n : uint64(p+1)*n]
	}
	return img, nil
}

// Storage returns the backing store.
func (img *Image) Storage() Storage { return img.store }

func (img *Image) slotIndex(bucket uint64, z int) uint64 {
	return bucket*uint64(img.Tree.Z) + uint64(z)
}

// record is bucket's record (recW words).
func (img *Image) record(bucket uint64) []uint32 {
	o := bucket * img.recW
	return img.recs[o : o+img.recW : o+img.recW]
}

// impliedIVs is the IV pair slot z of a record-form bucket is sealed
// under unless its explicit bit says otherwise. A real slot of version 0
// holds an initial placement, which InitBlocks draws for address a as
// initBase+2a+1 and initBase+2a+2 (every rewrite draws a version of at
// least 1); any other slot is under the bucket's pair, ivBase+2z+1 and
// ivBase+2z+2.
func (img *Image) impliedIVs(r []uint32, z int) (iv1, iv2 uint64) {
	base := (uint64(r[recIVBase]) | uint64(r[recIVBase+1])<<32) + 2*uint64(z)
	if h := recHdr + 3*z; r[recReal]>>uint(z)&1 != 0 && r[h+2] == 0 {
		base = img.initBase + 2*uint64(r[h])
	}
	return base + 1, base + 2
}

// coldAt is slot z of bucket's cold entry. Its page is present: the
// image keeps every page, or the bucket is expanded, or the slot is
// explicit.
func (img *Image) coldAt(bucket uint64, z int) *coldSlot {
	return &img.cold[bucket>>coldPageShift][(bucket&(coldPageBuckets-1))*uint64(img.Tree.Z)+uint64(z)]
}

// holdCold counts n more slots of bucket as needing their cold entry,
// allocating the bucket's page on first need. Record form only.
func (img *Image) holdCold(bucket uint64, n int) {
	p := bucket >> coldPageShift
	if img.cold[p] == nil {
		img.cold[p] = make([]coldSlot, coldPageBuckets*img.Tree.Z)
	}
	img.coldUse[p] += int32(n)
}

// dropCold counts n slots of bucket as no longer needing their cold
// entry, releasing the page once none of its slots does. Record form
// only.
func (img *Image) dropCold(bucket uint64, n int) {
	if n == 0 {
		return
	}
	p := bucket >> coldPageShift
	if img.coldUse[p] -= int32(n); img.coldUse[p] == 0 {
		img.cold[p] = nil
	}
}

// payload is slot idx's cell, which the slot must own, capped so that an
// append through the view can never reach the neighbouring cell. The
// view is into the image's region: it is valid while the image is open.
func (img *Image) payload(idx uint64) []byte {
	off := uint64(img.cell[idx]) * img.cellB
	end := off + uint64(img.blockB)
	return img.cells[off:end:end]
}

// ownCell gives slot idx a cell unless it owns one already — the cell
// handed back last, so a whole-bucket write stores into the cells its
// PutLazyDummies just returned, else the lowest never handed out — and
// returns the slot's payload view.
func (img *Image) ownCell(idx uint64) []byte {
	if img.cell[idx] == 0 {
		if n := len(img.free) - 1; n >= 0 {
			img.cell[idx], img.free = img.free[n], img.free[:n]
		} else {
			img.cell[idx] = img.next
			img.next++
		}
	}
	return img.payload(idx)
}

// dropCell hands slot idx's cell, if it owns one, back to the free list.
func (img *Image) dropCell(idx uint64) {
	if h := img.cell[idx]; h != 0 {
		img.free = append(img.free, h)
		img.cell[idx] = 0
	}
}

// Close frees the image's region and drops its tables. The image must
// not be used afterwards, nor any payload view it returned: with its
// tables nil, a stray use fails a bounds check instead of touching
// unmapped memory. Closing twice is a no-op.
func (img *Image) Close() {
	if img.region == nil {
		return
	}
	img.recs, img.cell, img.cells, img.free = nil, nil, nil, nil
	img.cold, img.coldUse, img.memo = nil, nil, nil
	img.region.free()
	img.region = nil
}

// footprint is the bytes the image holds: the region's records and
// handles, its cells up to the highest ever handed out, and the cold
// pages.
func (img *Image) footprint() uint64 {
	n := uint64(4*len(img.recs)+4*len(img.cell)) + uint64(img.next)*img.cellB
	for _, p := range img.cold {
		n += uint64(len(p)) * uint64(unsafe.Sizeof(coldSlot{}))
	}
	return n
}

// state is the state bits of slot z of the bucket with record r: the
// record answers while the bucket is in record form, cold otherwise.
func (img *Image) state(r []uint32, bucket uint64, z int) uint8 {
	if r[recExplicit]&recOn == 0 {
		return img.coldAt(bucket, z).state
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
	img.holdCold(bucket, img.Tree.Z-bits.OnesCount32(r[recExplicit]&^recOn))
	for z := 0; z < img.Tree.Z; z++ {
		cs := img.coldAt(bucket, z)
		if r[recExplicit]>>uint(z)&1 == 0 {
			cs.iv1, cs.iv2 = img.impliedIVs(r, z)
		}
		// The slot was rewritten since any earlier materialization, and
		// an image that keeps the record form never queues.
		cs.state = img.state(r, bucket, z)
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
// one after another: first every bucket's record and its slots' cell
// handles, whose addresses follow from path alone, then for every real
// slot of a record-form bucket its cell's first byte and pm's entry for
// its address. It changes nothing and allocates nothing; the returned
// value is a fold of what it read, for the caller to keep so the loads
// are not discarded. It is a no-op, returning 0, on an image without the
// record form.
func (img *Image) Gather(path []uint64, pm *PosMap) (fold uint64) {
	if !img.recordForm {
		return 0
	}
	w, z := img.recW, uint64(img.Tree.Z)
	for _, bucket := range path {
		fold += uint64(img.recs[bucket*w+recExplicit]) + uint64(img.recs[bucket*w+w-1]) + uint64(img.cell[bucket*z])
	}
	for _, bucket := range path {
		r := img.record(bucket)
		if r[recExplicit]&recOn == 0 {
			continue
		}
		for m := r[recReal]; m != 0; m &= m - 1 {
			s := uint64(bits.TrailingZeros32(m))
			fold += uint64(img.payload(bucket*z + s)[0])
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
// order. The bucket's real blocks follow through PutLazyBlock, which
// take back the cells handed back here. Where the image keeps the record
// form this is a write of the bucket's record and no cold entry is
// written; elsewhere it is Z PutLazyDummy calls.
func (img *Image) PutLazyDummies(bucket uint64, ivBase uint64) {
	if !img.recordForm {
		for z := 0; z < img.Tree.Z; z++ {
			iv := ivBase + 2*uint64(z)
			img.PutLazyDummy(bucket, z, iv+1, iv+2)
		}
		return
	}
	// The highest slot's cell goes back first, so the lowest real slot
	// written next takes back the lowest slot's.
	for z := img.Tree.Z - 1; z >= 0; z-- {
		img.dropCell(bucket*uint64(img.Tree.Z) + uint64(z))
	}
	r := img.record(bucket)
	if r[recExplicit]&recOn != 0 {
		img.dropCold(bucket, bits.OnesCount32(r[recExplicit]&^recOn))
	} else {
		img.dropCold(bucket, img.Tree.Z)
	}
	r[recIVBase], r[recIVBase+1] = uint32(ivBase), uint32(ivBase>>32)
	r[recReal], r[recExplicit] = 0, recOn
}

// PutLazyBlock records a deferred seal of b at (bucket, z) under the
// pre-drawn IVs and the version already baked into b.Ver. The payload
// (exactly BlockBytes) is copied into the slot's cell — callers recycle
// b.Data freely. A record-form bucket keeps its form: the slot's real
// bit is set, and unless the IVs are the slot's implied pair, so is its
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
	copy(img.ownCell(idx), b.Data)
	if r[recExplicit]&recOn != 0 {
		bit := uint32(1) << uint(z)
		r[recReal] |= bit
		if i1, i2 := img.impliedIVs(r, z); iv1 == i1 && iv2 == i2 {
			if r[recExplicit]&bit != 0 {
				r[recExplicit] &^= bit
				img.dropCold(bucket, 1)
			}
			return
		}
		if r[recExplicit]&bit == 0 {
			img.holdCold(bucket, 1)
			r[recExplicit] |= bit
		}
		cs := img.coldAt(bucket, z)
		cs.iv1, cs.iv2 = iv1, iv2
		return
	}
	cs := img.coldAt(bucket, z)
	cs.state = cs.state&psQueued | psLive
	cs.iv1, cs.iv2 = iv1, iv2
	img.enqueue(cs, idx)
}

// PutLazyDummy records a deferred dummy seal at (bucket, z).
func (img *Image) PutLazyDummy(bucket uint64, z int, iv1, iv2 uint64) {
	img.expand(bucket)
	idx := img.slotIndex(bucket, z)
	img.dropCell(idx)
	cs := img.coldAt(bucket, z)
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
// chunks dirty), so the store holds the sealed form of every entry.
// Entries that died (overwritten via PutSlot) or were already
// materialized by a reader are skipped. A slot rewritten N times within
// one group is sealed once, with its final content — the amortization
// that makes deferred sealing pay off under group commit.
func (img *Image) MaterializePending() {
	zz := uint64(img.Tree.Z)
	for _, idx := range img.pending {
		bucket, z := idx/zz, int(idx%zz)
		cs := img.coldAt(bucket, z)
		cs.state &^= psQueued
		if cs.state&(psLive|psSealed) == psLive {
			img.materialize(bucket, z)
		}
	}
	img.pending = img.pending[:0]
}

// PlainHeader is the overlay fast path for header inspection: if the slot
// has a live deferred seal, its header fields come back with ok=true and
// zero AES work.
func (img *Image) PlainHeader(bucket uint64, z int) (addr Addr, leaf Leaf, ver uint32, dummy, ok bool) {
	r := img.record(bucket)
	st := img.state(r, bucket, z)
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
	idx := img.slotIndex(bucket, z)
	if img.cell[idx] == 0 { // only a live real entry owns a cell
		return nil
	}
	return img.payload(idx)
}

// materialize runs slot (bucket, z)'s deferred seal into its memo
// buffers and mirrors the result into the store, so Slot() observers —
// snapshots, integrity readers, a durable barrier — see the sealed form
// of the plaintext the entry holds. The bucket is not in record form.
func (img *Image) materialize(bucket uint64, z int) Slot {
	if img.memo == nil {
		img.memo = make([]sealedBuf, img.Tree.Slots())
	}
	idx := img.slotIndex(bucket, z)
	cs, m := img.coldAt(bucket, z), &img.memo[idx]
	if cs.state&psSealed == 0 {
		if cap(m.hdr) < headerBytes {
			m.hdr = make([]byte, headerBytes)
		}
		if cap(m.data) < img.blockB {
			m.data = make([]byte, img.blockB)
		}
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
	img.expand(bucket)
	if img.coldAt(bucket, z).state&psLive != 0 {
		return img.materialize(bucket, z)
	}
	return img.store.Slot(bucket, z)
}

// PutLazyUndoable is the overlay's undoable write: PutLazyBlock of b at
// (bucket, z), or PutLazyDummy when b is a dummy, logging what the slot
// held before — for the crash rollback of a posted write that completes
// at cycle done, or of a write into a batch that never commits (done =
// NeverDone). A rollback puts back the previous header, IVs, state and
// payload; the restored entry is sealed again if it is observed (a
// durable image queues it for the next barrier). A slot whose previous
// content was the store's gets that content back.
func (img *Image) PutLazyUndoable(bucket uint64, z int, iv1, iv2 uint64, b Block, done uint64) {
	img.expand(bucket)
	idx := img.slotIndex(bucket, z)
	r, h, cs := img.record(bucket), recHdr+3*z, img.coldAt(bucket, z)
	e := undoEntry{idx: idx, done: done, iv1: cs.iv1, iv2: cs.iv2,
		hdr: [3]uint32{r[h], r[h+1], r[h+2]}, state: cs.state & (psLive | psDummy)}
	switch {
	case e.state&psLive == 0:
		e.off = uint32(len(img.undoStored))
		img.undoStored = append(img.undoStored, img.store.Slot(bucket, z))
	case e.state&psDummy == 0:
		e.off = uint32(len(img.undoData))
		img.undoData = append(img.undoData, img.payload(idx)...)
	}
	img.undo = append(img.undo, e)
	if b.Dummy() {
		img.PutLazyDummy(bucket, z, iv1, iv2)
	} else {
		img.PutLazyBlock(bucket, z, iv1, iv2, b)
	}
}

// Mark returns the undo log's position, for Rollback and Release.
func (img *Image) Mark() int { return len(img.undo) }

// Rollback is a power failure at cycle for the writes logged since mark:
// those that complete after cycle are undone, newest first, the rest
// stand, and all of them leave the log. The writes of a batch that never
// commits complete at NeverDone, so its rollback takes them all back.
func (img *Image) Rollback(mark int, cycle uint64) {
	zz := uint64(img.Tree.Z)
	for i := len(img.undo) - 1; i >= mark; i-- {
		e := &img.undo[i]
		if e.done <= cycle {
			continue
		}
		bucket, z := e.idx/zz, int(e.idx%zz)
		img.expand(bucket) // a whole-bucket write may have come in between
		cs := img.coldAt(bucket, z)
		if e.state&psLive == 0 {
			cs.state &^= psLive | psSealed
			img.dropCell(e.idx)
			img.store.SetSlot(bucket, z, img.undoStored[e.off])
			continue
		}
		r, h := img.record(bucket), recHdr+3*z
		r[h], r[h+1], r[h+2] = e.hdr[0], e.hdr[1], e.hdr[2]
		if e.state&psDummy == 0 {
			copy(img.ownCell(e.idx), img.undoData[e.off:])
		} else {
			img.dropCell(e.idx)
		}
		cs.iv1, cs.iv2 = e.iv1, e.iv2
		cs.state = cs.state&psQueued | e.state
		img.enqueue(cs, e.idx)
	}
	img.Release(mark, NeverDone)
}

// Release forgets the writes logged since mark that complete at or
// before cycle: they stand. Release(mark, NeverDone) forgets them all, a
// batch's at its commit; Release(0, now) those that have reached the
// device by now.
func (img *Image) Release(mark int, cycle uint64) {
	// The survivors' saved content moves down over the released entries',
	// in log order.
	n, data, stored := 0, 0, 0
	for i, e := range img.undo {
		if i >= mark && e.done <= cycle {
			continue
		}
		switch {
		case e.state&psLive == 0:
			img.undoStored[stored] = img.undoStored[e.off]
			e.off, stored = uint32(stored), stored+1
		case e.state&psDummy == 0:
			copy(img.undoData[data:], img.undoData[e.off:int(e.off)+img.blockB])
			e.off, data = uint32(data), data+img.blockB
		}
		img.undo[n] = e
		n++
	}
	clear(img.undoStored[stored:]) // the store's buffers are not ours to keep
	img.undo, img.undoData, img.undoStored = img.undo[:n], img.undoData[:data], img.undoStored[:stored]
}

// PutSlot overwrites the slot at (bucket, z) with sealed bytes, ending
// its overlay entry, and returns what the store held there before (under
// a live entry, stale bytes from before the entry's writes). The slot's
// memo buffers are dropped with the entry: s may be a view of them, and
// the next materialization must not seal into the store's new bytes.
func (img *Image) PutSlot(bucket uint64, z int, s Slot) (old Slot) {
	img.expand(bucket)
	idx := img.slotIndex(bucket, z)
	img.coldAt(bucket, z).state &^= psLive | psSealed
	img.dropCell(idx)
	if img.memo != nil {
		img.memo[idx] = sealedBuf{}
	}
	old = img.store.Slot(bucket, z)
	img.store.SetSlot(bucket, z, s)
	return old
}

// BlockBytes returns the payload size of each block.
func (img *Image) BlockBytes() int { return img.blockB }

// InitBlocks places the blocks 0..n-1, zero-filled, each on the path of
// its leaf, filling from the leaf level upward: the initial ORAM state
// with real resident blocks (plus the dummies everywhere else). Blocks
// whose paths are already full are returned unplaced — at high
// utilization the controller starts them in the stash, exactly as a real
// warm-up would. Each placement is a deferred seal like any other write,
// at version 0, under the next two IVs of nextIV. A bucket's fill is
// read from the image itself, so placing allocates nothing but one zero
// payload and the unplaced list.
func (img *Image) InitBlocks(n uint64, leaf func(Addr) Leaf, nextIV func() uint64) (unplaced []Addr) {
	t := img.Tree
	zero := make([]byte, img.blockB)
	for a := Addr(0); uint64(a) < n; a++ {
		l, placed := leaf(a), false
		for k := t.L; k >= 0 && !placed; k-- {
			bucket := t.PathNode(l, k)
			if z := img.filled(bucket); z < t.Z {
				iv1, iv2 := nextIV(), nextIV()
				img.PutLazyBlock(bucket, z, iv1, iv2, Block{Addr: a, Leaf: l, Data: zero})
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, a)
		}
	}
	return unplaced
}

// filled is the number of bucket's leading slots that hold real blocks:
// the slots InitBlocks has placed into a fresh bucket.
func (img *Image) filled(bucket uint64) int {
	z := 0
	for ; z < img.Tree.Z; z++ {
		if _, _, _, dummy, ok := img.PlainHeader(bucket, z); !ok || dummy {
			break
		}
	}
	return z
}

// OpenHeader returns the header of the slot at (bucket, z): a live
// overlay entry's, read in place, else the store's sealed header,
// opened. A dummy reads as DummyAddr. It allocates nothing, so a scan of
// the whole tree (Pool.Invariants) neither materializes the tree nor
// copies it.
func (img *Image) OpenHeader(bucket uint64, z int) (Addr, Leaf, uint32, error) {
	if addr, leaf, ver, _, ok := img.PlainHeader(bucket, z); ok {
		return addr, leaf, ver, nil
	}
	addr, leaf, ver, err := OpenSlotHeader(img.engine, img.store.Slot(bucket, z))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("oram: bucket %d slot %d: %w", bucket, z, err)
	}
	return addr, leaf, ver, nil
}

// Data returns a fresh copy of the plaintext payload of the slot at
// (bucket, z): a live real entry's, a live dummy's zeros, else the
// store's sealed payload, opened — what OpenSlot(Slot()) returns,
// without sealing anything.
func (img *Image) Data(bucket uint64, z int) []byte {
	if plain := img.PlainData(bucket, z); plain != nil {
		return slices.Clone(plain)
	}
	if _, _, _, _, ok := img.PlainHeader(bucket, z); ok {
		return make([]byte, img.blockB)
	}
	s := img.store.Slot(bucket, z)
	out := slices.Clone(s.SealedData)
	img.engine.OpenInto(s.IV2, out, out) // CTR mode opens in place
	return out
}

// ReadBucket opens every slot of a bucket into fresh buffers (tests and
// diagnostics; a scan that must not copy every slot reads OpenHeader
// and Data).
func (img *Image) ReadBucket(bucket uint64) ([]Block, error) {
	out := make([]Block, img.Tree.Z)
	for z := range out {
		addr, leaf, ver, err := img.OpenHeader(bucket, z)
		if err != nil {
			return nil, err
		}
		out[z] = Block{Addr: addr, Leaf: leaf, Ver: ver, Data: img.Data(bucket, z)}
	}
	return out, nil
}

// CountReal returns the number of non-dummy blocks in the whole tree
// (slow; for tests and consistency checks). Only headers are read.
func (img *Image) CountReal() (int, error) {
	n := 0
	for bucket := uint64(0); bucket < img.Tree.Buckets(); bucket++ {
		for z := 0; z < img.Tree.Z; z++ {
			addr, _, _, err := img.OpenHeader(bucket, z)
			if err != nil {
				return 0, err
			}
			if addr != DummyAddr {
				n++
			}
		}
	}
	return n, nil
}
