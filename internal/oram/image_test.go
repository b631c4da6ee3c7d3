package oram

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// sameSlot reports whether two sealed slots are the same bytes under the
// same IVs.
func sameSlot(a, b Slot) bool {
	return a.IV1 == b.IV1 && a.IV2 == b.IV2 &&
		bytes.Equal(a.SealedHeader, b.SealedHeader) && bytes.Equal(a.SealedData, b.SealedData)
}

// diffSlots reports the first slot in which two images' sealed forms
// differ ("" = identical: IVs, sealed header, sealed payload).
func diffSlots(a, b *Image) string {
	for bucket := uint64(0); bucket < a.Tree.Buckets(); bucket++ {
		for z := 0; z < a.Tree.Z; z++ {
			if !sameSlot(a.Slot(bucket, z), b.Slot(bucket, z)) {
				return fmt.Sprintf("bucket %d slot %d", bucket, z)
			}
		}
	}
	return ""
}

// sameImages requires two images to read alike: bucket by bucket in
// place (ReadBucket, CountReal), then sealed, slot by slot.
func sameImages(t *testing.T, when string, a, b *Image) {
	t.Helper()
	for bucket := uint64(0); bucket < a.Tree.Buckets(); bucket++ {
		ga, errA := a.ReadBucket(bucket)
		gb, errB := b.ReadBucket(bucket)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		for z := range ga {
			if x, y := ga[z], gb[z]; x.Addr != y.Addr || x.Leaf != y.Leaf || x.Ver != y.Ver || !bytes.Equal(x.Data, y.Data) {
				t.Fatalf("%s: bucket %d slot %d reads %+v, the twin %+v", when, bucket, z, x, y)
			}
		}
	}
	ca, errA := a.CountReal()
	cb, errB := b.CountReal()
	if errA != nil || errB != nil || ca != cb {
		t.Fatalf("%s: CountReal %d (%v), the twin %d (%v)", when, ca, errA, cb, errB)
	}
	if d := diffSlots(a, b); d != "" {
		t.Fatalf("%s: sealed images differ at %s", when, d)
	}
}

// TestBornLazyImageIdentity: an image is born lazy. Construction, and
// an initial placement after it, seal nothing and write nothing to the
// store; what an observer later reads is the table of seals of the
// dummies and blocks written, under the IVs drawn for them in order —
// right after construction, and after every overlay write path has run.
// A durable twin, built and driven alike, instead queues every slot for
// its barrier, and MaterializePending stores the table's bytes.
func TestBornLazyImageIdentity(t *testing.T) {
	e := testEngine()
	tree := NewTree(4, 4)
	for _, steps := range []int{0, 1500} {
		sets := 0
		mem := newOverlayModel(t, NewImage(tree, e, 64, testIVs()), testIVs())
		dur := newOverlayModel(t, wrappedImage(tree, e, 64, &sets), testIVs())
		if uint64(len(dur.img.pending)) != tree.Slots() {
			t.Fatalf("the durable image queued %d of %d slots at construction", len(dur.img.pending), tree.Slots())
		}
		// The placements draw from the counter the birth drew from, as
		// New's do, so the in-memory image holds them under the IVs their
		// addresses imply.
		afterBirth := func() func() uint64 {
			iv := testIVs()
			for range 2 * tree.Slots() {
				iv()
			}
			return iv
		}
		for _, m := range []*overlayModel{mem, dur} {
			// One block per leaf, each placed in slot 0 of its leaf bucket.
			if unplaced := m.img.InitBlocks(tree.Leaves(), func(a Addr) Leaf { return Leaf(a) }, afterBirth()); len(unplaced) != 0 {
				t.Fatalf("InitBlocks left %d blocks unplaced", len(unplaced))
			}
			iv := afterBirth()
			for l := Leaf(0); uint64(l) < tree.Leaves(); l++ {
				iv1, iv2 := iv(), iv()
				b := Block{Addr: Addr(l), Leaf: l, Data: make([]byte, 64)}
				m.ref[tree.Path(l)[tree.L]*uint64(tree.Z)] = m.sealed(&b, iv1, iv2)
			}
		}
		if n := coldPages(mem.img); n != 0 {
			t.Fatalf("the initial placements hold %d cold pages", n)
		}
		if mem.img.store.(*memStorage).buckets != nil {
			t.Fatal("construction wrote to the store")
		}
		if mem.img.memo != nil || dur.img.memo != nil || sets != 0 {
			t.Fatalf("construction sealed (memo %v, %v; %d store writes)", mem.img.memo != nil, dur.img.memo != nil, sets)
		}
		for _, m := range []*overlayModel{mem, dur} {
			churn(m, steps)
			m.check()
		}
		if d := mem.diff(); d != "" {
			t.Fatalf("after %d overlay writes: the image differs from its table at %s", steps, d)
		}
		dur.img.MaterializePending()
		for i, want := range dur.ref {
			if !sameSlot(dur.img.store.Slot(uint64(i)/uint64(tree.Z), i%tree.Z), want) {
				t.Fatalf("after %d overlay writes and a barrier: the durable store differs from its table at slot %d", steps, i)
			}
		}
	}
}

// overlayModel drives an image through every write path of the overlay
// and keeps ref, the table of what each slot must read as once sealed:
// the SealBlockIVs or DummySlotIVs output over the plaintext the model
// wrote there, under the write's IVs, or the sealed bytes a PutSlot
// stored. Whatever an observer reads from the image must be the table's.
type overlayModel struct {
	t     *testing.T
	img   *Image
	ref   []Slot // by slot index, bucket*Z+z
	iv    func() uint64
	log   []modelUndo // the image's undo log, oldest first
	marks []int       // Marks taken and not yet used, newest last
	step  int
}

// modelUndo is one logged write: its slot, the slot's table entry from
// before it, and its completion cycle.
type modelUndo struct {
	idx  uint64
	prev Slot
	done uint64
}

// undoCycles are the completion cycles an undoable write of the model
// takes (one of them: a batch's write, complete only once released).
var undoCycles = [4]uint64{1, 2, 3, NeverDone}

// rollback is Image.Rollback on the model: it restores, newest first,
// the table entries of the log entries from position mark on that
// complete after cycle, and truncates the log to mark.
func (m *overlayModel) rollback(mark int, cycle uint64) {
	m.img.Rollback(mark, cycle)
	for i := len(m.log) - 1; i >= mark; i-- {
		if u := m.log[i]; u.done > cycle {
			m.ref[u.idx] = u.prev
		}
	}
	m.log = m.log[:mark]
}

// release is Image.Release on the model: the log entries from position
// mark on that complete by cycle leave the log.
func (m *overlayModel) release(mark int, cycle uint64) {
	m.img.Release(mark, cycle)
	kept := m.log[:mark]
	for _, u := range m.log[mark:] {
		if u.done > cycle {
			kept = append(kept, u)
		}
	}
	m.log = kept
}

// popMark is the newest unused mark, or 0.
func (m *overlayModel) popMark() int {
	if len(m.marks) == 0 {
		return 0
	}
	mark := m.marks[len(m.marks)-1]
	m.marks = m.marks[:len(m.marks)-1]
	return mark
}

// newOverlayModel wraps a freshly built image whose construction drew
// its IVs from iv: its table holds a dummy in every slot, sealed under
// two draws each, in slot order.
func newOverlayModel(t *testing.T, img *Image, iv func() uint64) *overlayModel {
	m := &overlayModel{t: t, img: img, ref: make([]Slot, img.Tree.Slots()), iv: ivSource(rng.New(2))}
	for i := range m.ref {
		iv1, iv2 := iv(), iv()
		m.ref[i] = m.sealed(nil, iv1, iv2)
	}
	return m
}

// sealed seals b (nil = a dummy) under the given IVs into fresh buffers.
func (m *overlayModel) sealed(b *Block, iv1, iv2 uint64) Slot {
	hdr, data := make([]byte, HeaderBytes), make([]byte, m.img.blockB)
	if b == nil {
		return DummySlotIVs(m.img.engine, m.img.blockB, iv1, iv2, hdr, data)
	}
	return SealBlockIVs(m.img.engine, *b, iv1, iv2, hdr, data)
}

// apply runs one operation: op selects it, sel the slot (or bucket) and
// arg its variable part.
func (m *overlayModel) apply(op, sel, arg byte) {
	m.step++
	t := m.img.Tree
	idx := uint64(sel) % t.Slots()
	bucket, z := idx/uint64(t.Z), int(idx%uint64(t.Z))
	blk := Block{Addr: Addr(arg % 50), Leaf: Leaf(uint64(arg) % t.Leaves()), Ver: uint32(m.step),
		Data: bytes.Repeat([]byte{arg}, m.img.blockB)}
	switch op % 13 {
	case 0, 1:
		iv1, iv2 := m.iv(), m.iv()
		m.img.PutLazyBlock(bucket, z, iv1, iv2, blk)
		m.ref[idx] = m.sealed(&blk, iv1, iv2)
	case 2:
		iv1, iv2 := m.iv(), m.iv()
		m.img.PutLazyDummy(bucket, z, iv1, iv2)
		m.ref[idx] = m.sealed(nil, iv1, iv2)
	case 3, 4:
		// A path write-back's write of one bucket: 2Z consecutive IVs in
		// slot order, dummies everywhere but the slots arg picks.
		base := m.iv() - 1
		for i := 1; i < 2*t.Z; i++ {
			m.iv()
		}
		m.img.PutLazyDummies(bucket, base)
		for z := 0; z < t.Z; z++ {
			iv1, iv2 := base+2*uint64(z)+1, base+2*uint64(z)+2
			i := bucket*uint64(t.Z) + uint64(z)
			if arg>>uint(z%8)&1 == 0 {
				m.ref[i] = m.sealed(nil, iv1, iv2)
				continue
			}
			b := blk
			b.Addr += Addr(z)
			m.img.PutLazyBlock(bucket, z, iv1, iv2, b)
			m.ref[i] = m.sealed(&b, iv1, iv2)
		}
	case 5:
		// An undoable write: of blk, or of a dummy for an odd arg,
		// completing at a cycle the rest of arg picks.
		iv1, iv2 := m.iv(), m.iv()
		b, want := blk, m.sealed(&blk, iv1, iv2)
		if arg&1 != 0 {
			b, want = Block{Addr: DummyAddr}, m.sealed(nil, iv1, iv2)
		}
		done := undoCycles[arg>>1%4]
		m.img.PutLazyUndoable(bucket, z, iv1, iv2, b, done)
		m.log = append(m.log, modelUndo{idx: idx, prev: m.ref[idx], done: done})
		m.ref[idx] = want
	case 6:
		// A power failure at cycle arg%4: the writes that complete after
		// it are rolled back, newest first; the log empties.
		m.rollback(0, uint64(arg%4))
		m.marks = m.marks[:0]
	case 7:
		iv1, iv2 := m.iv(), m.iv()
		s := m.sealed(nil, iv1, iv2)
		m.img.PutSlot(bucket, z, s)
		m.ref[idx] = s
	case 8:
		if got := m.img.Slot(bucket, z); !sameSlot(got, m.ref[idx]) { // an observer materializes the entry
			m.t.Fatalf("step %d: bucket %d slot %d: the image's sealed bytes differ from its table", m.step, bucket, z)
		}
	case 9:
		if got := m.img.Mark(); got != len(m.log) {
			m.t.Fatalf("step %d: Mark = %d, the log holds %d writes", m.step, got, len(m.log))
		}
		m.marks = append(m.marks, len(m.log))
	case 10:
		m.rollback(m.popMark(), uint64(arg%4))
	case 11:
		m.release(m.popMark(), undoCycles[arg%4])
	case 12:
		// The writes complete by cycle arg%4 leave the log; the marks no
		// longer name positions in it.
		m.release(0, uint64(arg%4))
		m.marks = m.marks[:0]
	}
	if m.img.Mark() != len(m.log) {
		m.t.Fatalf("step %d: the undo log holds %d writes, the model %d", m.step, m.img.Mark(), len(m.log))
	}
}

// check compares what the image holds — read in place, without
// materializing — with what the table's slots open to, bucket by bucket.
func (m *overlayModel) check() {
	m.t.Helper()
	e := m.img.engine
	real := 0
	for bucket := uint64(0); bucket < m.img.Tree.Buckets(); bucket++ {
		got, err := m.img.ReadBucket(bucket)
		if err != nil {
			m.t.Fatal(err)
		}
		for z, g := range got {
			w, err := OpenSlot(e, m.ref[bucket*uint64(m.img.Tree.Z)+uint64(z)])
			if err != nil {
				m.t.Fatal(err)
			}
			if g.Addr != w.Addr || g.Leaf != w.Leaf || g.Ver != w.Ver || !bytes.Equal(g.Data, w.Data) {
				m.t.Fatalf("step %d: bucket %d slot %d reads %+v, the table %+v", m.step, bucket, z, g, w)
			}
			if !w.Dummy() {
				real++
			}
		}
	}
	got, err := m.img.CountReal()
	if err != nil {
		m.t.Fatal(err)
	}
	if got != real {
		m.t.Fatalf("step %d: CountReal = %d, the table holds %d", m.step, got, real)
	}
}

// diff reports the first slot whose sealed form, materialized through
// Slot, is not the table's ("" = none).
func (m *overlayModel) diff() string {
	for i, want := range m.ref {
		bucket, z := uint64(i)/uint64(m.img.Tree.Z), i%m.img.Tree.Z
		if !sameSlot(m.img.Slot(bucket, z), want) {
			return fmt.Sprintf("bucket %d slot %d", bucket, z)
		}
	}
	return ""
}

// churn rewrites the model's slots through every write path, leaving a
// mix of record-form buckets, live real entries, live dummies,
// materialized entries, restored ones, and slots whose overlay entry
// died under a sealed write.
func churn(m *overlayModel, rounds int) {
	r := rng.New(3)
	for i := 0; i < rounds; i++ {
		x := r.Uint64()
		m.apply(byte(x), byte(x>>8), byte(x>>16))
	}
}

// FuzzImageOverlay feeds the model coverage-guided operation sequences
// on a born-lazy image, at Z = 4 (one record per cache line), at Z = 2,
// and at Z = 1 on a tree of several pages of cold entries, each beside a
// durable twin (no record form, dense cold table, a barrier): every
// write path, and every operation of the undo log — Mark, and Rollback
// and Release from a mark or from the start, at a cycle. After every
// observer call the image agrees with its table; so does what it reads
// in place, periodically and at the end, and finally every slot it
// materializes — and, on the twin, every slot its barrier stores. The
// undo log always holds the model's writes.
func FuzzImageOverlay(f *testing.F) {
	f.Add([]byte{3, 5, 0x05, 8, 5, 0, 2, 6, 0, 8, 6, 0})                // whole-bucket write, observe, expand by a per-slot dummy
	f.Add([]byte{4, 9, 0x0f, 5, 9, 6, 3, 9, 0x02, 6, 0, 0, 8, 9, 0})    // undoable write on a record-form bucket, rewritten whole, then undone
	f.Add([]byte{0, 2, 1, 3, 2, 0, 7, 2, 0, 8, 2, 0, 3, 2, 0xff, 8, 3}) // trailing partial op ignored
	r := rng.New(11)
	seed := make([]byte, 3*200)
	for i := range seed {
		seed[i] = byte(r.Uint64())
	}
	f.Add(seed)
	// An explicit-IV PutLazyBlock into a record-form bucket, over a dummy
	// and over a real slot, then observed; then the bucket rewritten whole.
	f.Add([]byte{3, 5, 0x05, 0, 5, 9, 8, 5, 0, 0, 4, 7, 8, 4, 0, 8, 6, 0, 3, 5, 0x0a, 8, 5, 0})
	// Undoable writes stacked on one slot — a dummy over an observed real
	// block, then a real block over a PutSlot — then rolled back.
	f.Add([]byte{0, 7, 2, 8, 7, 0, 5, 7, 1, 7, 7, 0, 5, 7, 4, 8, 7, 0, 6, 0, 0, 8, 7, 0})
	// Nested marks: a batch-like write rolled back to the inner mark, the
	// outer one released, so a power failure finds nothing to undo.
	f.Add([]byte{9, 0, 0, 5, 7, 2, 9, 0, 0, 5, 7, 7, 8, 7, 0, 10, 0, 0, 8, 7, 0, 11, 0, 3, 6, 0, 0, 8, 7, 0})
	// Three posted writes of one slot completing at cycles 1, 2 and 3: the
	// first leaves the log complete, a power failure at cycle 1 undoes the
	// other two and the slot holds the first.
	f.Add([]byte{5, 3, 0, 5, 3, 2, 5, 3, 4, 12, 0, 1, 6, 0, 1, 8, 3, 0})
	// A whole-bucket write over real slots, observed, rewritten whole (its
	// cells handed back and taken again), then per-slot PutLazyBlocks.
	f.Add([]byte{3, 5, 0x0f, 8, 5, 0, 3, 5, 0x0a, 0, 5, 1, 0, 4, 2, 3, 4, 0x05, 8, 4, 0})
	// A real block's cell handed back by an undoable dummy and taken by
	// the next real write; the power failure restores the real block,
	// which takes a cell again.
	f.Add([]byte{0, 7, 2, 5, 7, 1, 0, 8, 3, 0, 9, 4, 6, 0, 0, 8, 7, 0, 8, 8, 0})
	// PutSlot ends a real entry, in per-slot form and in record form.
	f.Add([]byte{0, 9, 4, 7, 9, 0, 8, 9, 0, 0, 9, 5, 3, 9, 0x03, 7, 9, 0, 8, 9, 0})
	// Explicit-IV slots whose page a whole-bucket write releases, then an
	// explicit slot that takes a page again.
	f.Add([]byte{0, 5, 9, 0, 6, 7, 3, 5, 0x00, 8, 5, 0, 0, 5, 3, 3, 5, 0x01, 8, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := testEngine()
		for _, tree := range []Tree{NewTree(3, 4), NewTree(3, 2), NewTree(7, 1)} {
			sets := 0
			for _, img := range []*Image{
				NewImage(tree, e, 32, testIVs()),
				wrappedImage(tree, e, 32, &sets),
			} {
				m := newOverlayModel(t, img, testIVs())
				for i := 0; i+2 < len(ops); i += 3 {
					m.apply(ops[i], ops[i+1], ops[i+2])
					if i%48 == 0 {
						m.check()
					}
				}
				m.check()
				if img.barrier {
					img.MaterializePending()
					for i, want := range m.ref {
						if !sameSlot(img.store.Slot(uint64(i)/uint64(tree.Z), i%tree.Z), want) {
							t.Fatalf("Z=%d: the durable store differs from its table at slot %d after a barrier", tree.Z, i)
						}
					}
				}
				if d := m.diff(); d != "" {
					t.Fatalf("Z=%d (durable %v): the materialized image differs from its table at %s", tree.Z, img.barrier, d)
				}
			}
		}
	})
}

// TestReadBucketOverlayMatchesSealed: ReadBucket and CountReal read live
// overlay entries where they lie. For every slot of a churned image that
// must be what decrypting the sealed slot gives.
func TestReadBucketOverlayMatchesSealed(t *testing.T) {
	e := testEngine()
	tree := NewTree(4, 4)
	img := NewImage(tree, e, 64, testIVs())
	churn(newOverlayModel(t, img, testIVs()), 3000)

	var direct [][]Block
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		blocks, err := img.ReadBucket(bucket)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, blocks)
	}
	counted, err := img.CountReal()
	if err != nil {
		t.Fatal(err)
	}
	if img.memo == nil {
		t.Fatal("churn materialized nothing; the test lost its sealed entries")
	}
	sealedBefore := 0
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		if _, ok := img.RealSlots(bucket); ok {
			continue // a record-form bucket's cold state bits are stale
		}
		for z := 0; z < tree.Z; z++ {
			if st := img.coldAt(bucket, z).state; st&(psLive|psSealed) == psLive|psSealed {
				sealedBefore++
			}
		}
	}

	real := 0
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		for z := 0; z < tree.Z; z++ {
			want, err := OpenSlot(e, img.Slot(bucket, z))
			if err != nil {
				t.Fatal(err)
			}
			got := direct[bucket][z]
			if got.Addr != want.Addr || got.Leaf != want.Leaf || got.Ver != want.Ver || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("bucket %d slot %d: overlay read %+v, sealed slot opens to %+v", bucket, z, got, want)
			}
			if !want.Dummy() {
				real++
			}
		}
	}
	if counted != real {
		t.Fatalf("CountReal = %d, the sealed image holds %d real blocks", counted, real)
	}
	// The comparison above materialized everything; the reads before it
	// must not have.
	if uint64(sealedBefore) == tree.Slots() {
		t.Fatal("ReadBucket/CountReal materialized the whole image")
	}
}

// TestDenseBucketMatchesPerSlot: a whole-bucket write leaves the bucket
// in record form, which must be indistinguishable from the Z per-slot
// writes it stands for — read in place, and sealed — before and after
// every per-slot operation. A PutLazyBlock keeps the form, with the
// slot's explicit-IV bit set unless the IVs are the slot's implied pair
// (for a version-0 block, the pair its address implies); every other
// mutator expands the bucket. The white-box half pins what
// the form is for: the write touches no cold entry, neither a dummy's
// nor a real slot's under the implied IVs, and a page of cold entries
// goes once the write leaves no slot of it needing one.
func TestDenseBucketMatchesPerSlot(t *testing.T) {
	e := testEngine()
	tree := NewTree(3, 4)
	const bucket, base = 5, 1000
	old := Block{Addr: 40, Leaf: 1, Ver: 1, Data: bytes.Repeat([]byte{0xEE}, 64)}
	blk := Block{Addr: 7, Leaf: 3, Ver: 9, Data: bytes.Repeat([]byte{0x11}, 64)}
	ivs := func(z int) (uint64, uint64) { return base + 2*uint64(z) + 1, base + 2*uint64(z) + 2 }
	// twins returns two lazy images holding the same bucket — real blocks
	// in slots 0 and 2, dummies in 1 and 3 — written whole on one and
	// slot by slot on the other, over older real blocks in every slot.
	twins := func() (whole, perSlot *Image) {
		whole, perSlot = NewImage(tree, e, 64, testIVs()), NewImage(tree, e, 64, testIVs())
		for _, img := range []*Image{whole, perSlot} {
			for z := 0; z < tree.Z; z++ {
				img.PutLazyBlock(bucket, z, 1, 2, old)
			}
			// An explicit slot of another bucket keeps the page of cold
			// entries held through the whole-bucket write.
			img.PutLazyBlock(bucket+1, 0, 3, 4, old)
		}
		whole.PutLazyDummies(bucket, base)
		for z := 0; z < tree.Z; z++ {
			iv1, iv2 := ivs(z)
			if z%2 == 0 {
				whole.PutLazyBlock(bucket, z, iv1, iv2, blk)
				perSlot.PutLazyBlock(bucket, z, iv1, iv2, blk)
			} else {
				perSlot.PutLazyDummy(bucket, z, iv1, iv2)
			}
		}
		return whole, perSlot
	}
	explicit := func(img *Image) uint32 { return img.record(bucket)[recExplicit] &^ recOn }

	whole, perSlot := twins()
	if mask, ok := whole.RealSlots(bucket); !ok || mask != 0b0101 || explicit(whole) != 0 {
		t.Fatalf("after a whole-bucket write RealSlots = %04b, %v, explicit %04b; want 0101 in record form, none explicit",
			mask, ok, explicit(whole))
	}
	if _, ok := perSlot.RealSlots(bucket); ok {
		t.Fatal("per-slot dummy writes left the bucket in record form")
	}
	for z := 0; z < tree.Z; z++ {
		if cs := whole.coldAt(bucket, z); cs.iv1 != 1 || cs.iv2 != 2 {
			t.Fatalf("the whole-bucket write touched slot %d's cold entry: %+v", z, cs)
		}
	}
	sameImages(t, "after the write", whole, perSlot)
	// Without the neighbour the write releases the page.
	lone := NewImage(tree, e, 64, testIVs())
	for z := 0; z < tree.Z; z++ {
		lone.PutLazyBlock(bucket, z, 1, 2, old)
	}
	if n := coldPages(lone); n != 1 {
		t.Fatalf("explicit slots hold %d cold pages, want 1", n)
	}
	lone.PutLazyDummies(bucket, base)
	if n := coldPages(lone); n != 0 {
		t.Fatalf("a whole-bucket write over the page's last explicit slots left %d cold pages", n)
	}

	iv := testIVs()
	sealed := sealBlock(e, old, iv)
	// A version-0 block is an initial placement: its implied IVs are the
	// pair its address implies, not the bucket's.
	initial := Block{Addr: 40, Leaf: 1, Data: old.Data}
	initialIVs := func(img *Image) (uint64, uint64) {
		return img.initBase + 2*uint64(initial.Addr) + 1, img.initBase + 2*uint64(initial.Addr) + 2
	}
	mutators := []struct {
		name     string
		mutate   func(img *Image, z int)
		keeps    bool // keeps the record form,
		explicit bool // with this explicit bit
	}{
		{"PutLazyBlock, explicit IVs", func(img *Image, z int) { img.PutLazyBlock(bucket, z, 77, 78, old) }, true, true},
		{"PutLazyBlock, implied IVs", func(img *Image, z int) {
			iv1, iv2 := ivs(z)
			img.PutLazyBlock(bucket, z, iv1, iv2, old)
		}, true, false},
		{"PutLazyBlock, version 0, arbitrary IVs", func(img *Image, z int) { img.PutLazyBlock(bucket, z, 77, 78, initial) }, true, true},
		{"PutLazyBlock, version 0, the bucket's IVs", func(img *Image, z int) {
			iv1, iv2 := ivs(z)
			img.PutLazyBlock(bucket, z, iv1, iv2, initial)
		}, true, true},
		{"PutLazyBlock, version 0, the address's IVs", func(img *Image, z int) {
			iv1, iv2 := initialIVs(img)
			img.PutLazyBlock(bucket, z, iv1, iv2, initial)
		}, true, false},
		{"PutLazyDummy", func(img *Image, z int) { img.PutLazyDummy(bucket, z, 77, 78) }, false, false},
		{"PutLazyUndoable", func(img *Image, z int) { img.PutLazyUndoable(bucket, z, 77, 78, old, NeverDone) }, false, false},
		{"PutLazyUndoable and rollback", func(img *Image, z int) {
			img.PutLazyUndoable(bucket, z, 77, 78, old, NeverDone)
			img.Rollback(0, 0)
		}, false, false},
		{"PutSlot", func(img *Image, z int) { img.PutSlot(bucket, z, sealed) }, false, false},
		{"Slot", func(img *Image, z int) { img.Slot(bucket, z) }, false, false},
		// The rollback of a write that a whole-bucket write has overwritten
		// in the meantime: the restored slot survives the expansion.
		{"rollback over a record-form bucket", func(img *Image, z int) {
			img.PutLazyUndoable(bucket, z, 77, 78, Block{Addr: DummyAddr}, NeverDone)
			img.PutLazyDummies(bucket, base)
			img.Rollback(0, 0)
		}, false, false},
	}
	for _, m := range mutators {
		keeps := m.keeps
		for z := 0; z < 2; z++ { // a real slot and an implied dummy
			whole, perSlot := twins()
			m.mutate(whole, z)
			m.mutate(perSlot, z)
			if _, ok := whole.RealSlots(bucket); ok != keeps {
				t.Fatalf("%s on slot %d: record form = %v", m.name, z, ok)
			}
			if keeps {
				want := uint32(0)
				if m.explicit {
					want = 1 << uint(z)
				}
				if got := explicit(whole); got != want {
					t.Fatalf("%s on slot %d: explicit-IV mask %04b, want %04b", m.name, z, got, want)
				}
			}
			sameImages(t, m.name, whole, perSlot)
		}
	}

	// An initial placement drawn from the counter the image was born from
	// is under the IVs its address implies: the bucket keeps the form
	// with no explicit bit, and the image holds no cold page.
	born := testIVs()
	img := NewImage(tree, e, 64, born)
	img.InitBlocks(2, func(Addr) Leaf { return 2 }, born)
	leafBucket := tree.Path(2)[tree.L]
	if mask, ok := img.RealSlots(leafBucket); !ok || mask != 0b11 || img.record(leafBucket)[recExplicit]&^recOn != 0 || coldPages(img) != 0 {
		t.Fatalf("InitBlocks into a record-form bucket left RealSlots = %b, %v, explicit %b, %d cold pages",
			mask, ok, img.record(leafBucket)[recExplicit]&^recOn, coldPages(img))
	}
	// Wider buckets than the masks keep per-slot entries.
	if wide := NewImage(NewTree(1, maxRecordZ+1), e, 8, testIVs()); wide.recordForm {
		t.Fatal("an image with Z beyond the mask width uses the record form")
	}
}

// TestInitialPlacementsMatchPerSlot: the j-th initial placement is
// sealed under the j-th IV pair drawn for the placements, whichever image
// holds it. A record-form image holds it under the pair its address a
// implies while j == a, and under explicit IVs in cold from the first
// block that did not fit on, since every later j falls behind its a. At
// 60% utilization, with the first blocks crowding one path two past its
// slots and the rest uniform, every slot must seal to the bytes of a
// per-slot image fed the same IV stream.
func TestInitialPlacementsMatchPerSlot(t *testing.T) {
	e := testEngine()
	tree := NewTree(4, 4)
	n, crowd := tree.Slots()*3/5, tree.PathBlocks()+2
	r := rng.New(5)
	leaves := make([]Leaf, n)
	for a := range leaves[crowd:] {
		leaves[crowd+a] = Leaf(r.Uint64n(tree.Leaves()))
	}
	leaf := func(a Addr) Leaf { return leaves[a] }
	wholeIVs, perSlotIVs := testIVs(), testIVs()
	whole := NewImage(tree, e, 64, wholeIVs)
	sets := 0
	perSlot, err := NewImageInto(wrappedStorage{newMemStorage(tree), &sets}, tree, e, 64, perSlotIVs)
	if err != nil {
		t.Fatal(err)
	}
	unplaced := whole.InitBlocks(n, leaf, wholeIVs)
	if len(unplaced) == 0 || !slices.Equal(unplaced, perSlot.InitBlocks(n, leaf, perSlotIVs)) {
		t.Fatalf("unplaced %v; the per-slot image's must be the same and not empty", unplaced)
	}
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		r := whole.record(bucket)
		for m := r[recReal]; m != 0; m &= m - 1 {
			z := bits.TrailingZeros32(m)
			addr := Addr(whole.header(r[recHdr+z]).addr)
			if explicit := r[recExplicit]>>uint(z)&1 != 0; explicit != (addr > unplaced[0]) {
				t.Fatalf("block %d (first unplaced %d) in bucket %d slot %d: explicit %v", addr, unplaced[0], bucket, z, explicit)
			}
		}
	}
	sameImages(t, "after the initial placement", whole, perSlot)
}

// TestImageFootprintAtBirth: New allocates nothing that grows with the
// tree but the position map, and an image that keeps the record form is
// born holding no page of cold entries — every initial placement is under
// the IVs its address implies. At L=12 with two blocks a leaf, right after
// New and before any access, the image holds at most 123 bytes a bucket
// (112 measured: a 32-byte record and an 80-byte cell a block; 144 while
// the headers sat in a 64-byte record beside a handle table), and New's
// heap allocations are within two position maps plus 64 KiB (at the
// parent of this test: 216 bytes a bucket, 96 cold pages and 971 KiB, a
// block list and a fill table among them).
func TestImageFootprintAtBirth(t *testing.T) {
	const levels, budget, slack = 12, 123, 64 << 10
	tree := NewTree(levels, 4)
	p := Params{Levels: levels, Z: 4, BlockBytes: 64, StashEntries: 200, NumBlocks: 2 * tree.Leaves(), Seed: 7}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := mustNew(t, p)
	runtime.ReadMemStats(&after)
	alloc, posMaps := after.TotalAlloc-before.TotalAlloc, 2*uint64(unsafe.Sizeof(Leaf(0)))*p.NumBlocks
	held := float64(c.Image.Footprint()) / float64(tree.Buckets())
	t.Logf("L=%d: New allocated %d bytes (two position maps: %d); the image holds %.1f bytes a bucket", levels, alloc, posMaps, held)
	if n := coldPages(c.Image); n != 0 {
		t.Fatalf("the image is born holding %d cold pages", n)
	}
	if held > budget {
		t.Fatalf("the image is born holding %.1f bytes a bucket, budget %d", held, budget)
	}
	if alloc > posMaps+slack {
		t.Fatalf("New allocated %d heap bytes, budget %d", alloc, posMaps+slack)
	}
}

// TestRecordLayout pins the layout the load walk relies on: a bucket's
// record is 16+4Z bytes, its state and its slots' cell handles — half a
// cache line at Z = 4 — and the records start on a line; a cell is a
// slot's 16-byte header followed by its payload, BlockBytes rounded up to
// 16 bytes, so a header never straddles a line. The cold per-slot entry is 24
// bytes, in pages of coldPageBuckets buckets: an image in record form
// is born holding none (one born slot by slot holds every page until
// whole-bucket writes release them), any other image holds every page.
// An undo-log entry is 56.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(coldSlot{}); got != 24 {
		t.Fatalf("coldSlot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(undoEntry{}); got != 56 {
		t.Fatalf("an undo-log entry is %d bytes, want 56", got)
	}
	onLine := func(p unsafe.Pointer) bool { return uintptr(p)%lineBytes == 0 }
	for _, z := range []int{1, 2, 4, 8, maxRecordZ + 1} {
		tree := NewTree(8, z)
		img := NewImage(tree, testEngine(), 16, testIVs())
		if got, want := 4*img.recW, uint64(16+4*z); got != want {
			t.Fatalf("Z=%d: a record is %d bytes, want %d", z, got, want)
		}
		if !onLine(unsafe.Pointer(&img.recs[0])) || !onLine(unsafe.Pointer(&img.cells[0])) {
			t.Fatalf("Z=%d: the records or the cells do not start on a %d-byte line", z, lineBytes)
		}
		if uint64(len(img.recs)) != tree.Buckets()*img.recW {
			t.Fatalf("Z=%d: %d record words for %d buckets", z, len(img.recs), tree.Buckets())
		}
		if pages := (tree.Buckets() + coldPageBuckets - 1) / coldPageBuckets; uint64(len(img.cold)) != pages {
			t.Fatalf("Z=%d: %d cold pages for %d buckets", z, len(img.cold), tree.Buckets())
		}
		want := len(img.cold)
		if img.recordForm {
			want = 0
		}
		if coldPages(img) != want {
			t.Fatalf("Z=%d (record form %v): born holding %d cold pages, want %d", z, img.recordForm, coldPages(img), want)
		}
		img.PutLazyBlock(3, 0, 1, 2, Block{Addr: 5, Leaf: 6, Ver: 7, Data: make([]byte, 16)})
		h := img.record(3)[recHdr]
		if img.cellB != 32 || unsafe.Pointer(&img.PlainData(3, 0)[0]) != unsafe.Add(unsafe.Pointer(img.header(h)), 16) {
			t.Fatalf("Z=%d: a 16-byte payload's cell is %d bytes, or its payload does not follow its 16-byte header", z, img.cellB)
		}
		if hd := *img.header(h); hd.addr != 5 || hd.leaf != 6 || hd.ver != 7 {
			t.Fatalf("Z=%d: the cell's header reads %+v", z, hd)
		}
	}
	if got := unsafe.Sizeof(cellHeader{}); got != 16 {
		t.Fatalf("a cell header is %d bytes, want 16", got)
	}
	if img := NewImage(NewTree(4, 4), testEngine(), 64, testIVs()); 8*img.recW != lineBytes || img.cellB != 80 {
		t.Fatalf("at Z=4 a record is %d bytes, want half a %d-byte line; a 64-byte block's cell is %d bytes, want 80", 4*img.recW, lineBytes, img.cellB)
	}
	// A payload that is no multiple of 16 bytes pads its cell to one.
	if img := NewImage(NewTree(4, 4), testEngine(), 65, testIVs()); img.cellB != 96 {
		t.Fatalf("a 65-byte block's cell is %d bytes, want 96", img.cellB)
	}
	// Born slot by slot (the IVs skip), an image in record form expands
	// every bucket; whole-bucket writes give the pages back.
	tree := NewTree(8, 4)
	iv := uint64(0)
	img := NewImage(tree, testEngine(), 16, func() uint64 { iv += 2; return iv })
	if !img.recordForm || coldPages(img) != len(img.cold) {
		t.Fatalf("an image born slot by slot holds %d of %d cold pages", coldPages(img), len(img.cold))
	}
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		img.PutLazyDummies(bucket, 10*bucket)
	}
	if n := coldPages(img); n != 0 {
		t.Fatalf("whole-bucket writes over every bucket left %d cold pages", n)
	}
}

// coldPages counts the pages of cold entries img holds.
func coldPages(img *Image) int {
	n := 0
	for _, p := range img.cold {
		if p != nil {
			n++
		}
	}
	return n
}

// TestPlainDataViewIsCapped: the payload arena packs slots back to back,
// so a PlainData view must not be appendable into its neighbour.
func TestPlainDataViewIsCapped(t *testing.T) {
	e := testEngine()
	img := NewImage(NewTree(3, 2), e, 64, testIVs())
	a, b := bytes.Repeat([]byte{0xAA}, 64), bytes.Repeat([]byte{0xBB}, 64)
	img.PutLazyBlock(5, 0, 1, 2, Block{Addr: 1, Data: a})
	img.PutLazyBlock(5, 1, 3, 4, Block{Addr: 2, Data: b})
	view := img.PlainData(5, 0)
	if len(view) != 64 || cap(view) != 64 {
		t.Fatalf("PlainData view has len %d cap %d, want 64/64", len(view), cap(view))
	}
	_ = append(view, 0xCC) // must reallocate, not spill into slot (5,1)
	_ = append(view[:0], bytes.Repeat([]byte{0xCC}, 65)...)
	if got := img.PlainData(5, 1); !bytes.Equal(got, b) {
		t.Fatalf("append through slot (5,0)'s view reached its neighbour: %x", got[:4])
	}
	if got := img.PlainData(5, 0); !bytes.Equal(got, a) {
		t.Fatalf("slot (5,0) changed: %x", got[:4])
	}
}

// TestUndoSurvivesLazyRewrites: a rollback restores the entry its logged
// write replaced, not bytes: the slot's plaintext entry had been
// observed, and rewriting the slot lazily — twice, with an observer in
// between, so its memo buffers are resealed — must not reach what the
// log saved. The restored entry seals to its old ciphertext on the next
// read, and on a durable image the next barrier stores it.
func TestUndoSurvivesLazyRewrites(t *testing.T) {
	e := testEngine()
	tree := NewTree(3, 2)
	blk := Block{Addr: 9, Leaf: 3, Ver: 7, Data: bytes.Repeat([]byte{1}, 64)}
	want := SealBlockIVs(e, blk, 100, 101, make([]byte, HeaderBytes), make([]byte, 64))
	sets := 0
	for _, img := range []*Image{
		NewImage(tree, e, 64, testIVs()),
		wrappedImage(tree, e, 64, &sets),
	} {
		img.PutLazyBlock(6, 1, 100, 101, blk)
		img.Slot(6, 1)
		mark := img.Mark()
		img.PutLazyUndoable(6, 1, 150, 151, Block{Addr: DummyAddr}, NeverDone)
		img.PutLazyBlock(6, 1, 200, 201, Block{Addr: 9, Leaf: 4, Ver: 8, Data: bytes.Repeat([]byte{2}, 64)})
		img.Slot(6, 1)
		img.PutLazyBlock(6, 1, 300, 301, Block{Addr: 9, Leaf: 5, Ver: 9, Data: bytes.Repeat([]byte{3}, 64)})
		img.MaterializePending()
		img.Rollback(mark, 0)

		if img.barrier {
			img.MaterializePending()
			if !sameSlot(img.store.Slot(6, 1), want) {
				t.Fatal("the barrier after the undo did not store the restored entry's ciphertext")
			}
		}
		got := img.Slot(6, 1)
		if !sameSlot(got, want) {
			t.Fatal("undo did not restore the pre-write ciphertext")
		}
		if blk, err := OpenSlot(e, got); err != nil || blk.Addr != 9 || blk.Ver != 7 {
			t.Fatalf("restored slot opens to %+v (%v)", blk, err)
		}
	}
}

// TestImageFootprint pins the overlay's size to what it holds, and holds
// the overlay off the Go heap. An in-memory Z = 4 image written the way
// PS-ORAM writes it — InitBlocks, then every address accessed once, each
// access reading its path in place and writing it back whole
// (PutLazyDummies, then PutLazyBlock per real slot under the path's
// consecutive IVs) — holds a record of state and Z cell handles per
// bucket, a cell of header and payload per real slot, and no page of cold
// entries: InitBlocks' explicit IVs are gone once every bucket it wrote
// has been rewritten. At two blocks a leaf, the 25% real slots of a
// mem-deep shard, its footprint is at most 123 bytes a bucket (112
// measured; 144 while the headers sat in the record beside a handle
// table, 440 when every slot had a payload and a cold entry and every
// bucket a store row). Those bytes are in the image's region:
// where that is a mapping, closing the image frees at most 8 heap bytes a
// bucket.
func TestImageFootprint(t *testing.T) {
	const levels, budget, heapBudget = 12, 123, 8
	tree := NewTree(levels, 4)
	c := mustNew(t, Params{Levels: levels, Z: 4, BlockBytes: 64, StashEntries: 200, NumBlocks: 2 * tree.Leaves(), Seed: 7})
	img := c.Image
	path := make([]uint64, 0, tree.Levels())
	plan, used := make([][]*StashBlock, tree.Levels()), make([]int, tree.Levels())
	for k := range plan {
		plan[k] = make([]*StashBlock, tree.Z)
	}
	var order, unplaced []*StashBlock
	for a := Addr(0); uint64(a) < c.NumBlocks(); a++ {
		l := c.PosMap.Lookup(a)
		path = tree.PathInto(path, l)
		for _, bucket := range path {
			for z := 0; z < tree.Z; z++ {
				addr, leaf, ver, dummy, ok := img.PlainHeader(bucket, z)
				if !ok {
					t.Fatalf("bucket %d slot %d has no overlay entry", bucket, z)
				}
				if !dummy {
					c.Stash.Put(&StashBlock{Addr: addr, Leaf: leaf, Ver: ver, Data: append([]byte(nil), img.PlainData(bucket, z)...)})
				}
			}
		}
		c.PosMap.Put(a, c.RandomLeaf())
		c.Stash.Get(a).Leaf = c.PosMap.Lookup(a)
		order = c.Stash.AppendLive(order[:0])
		unplaced = c.PlanEvictionInto(l, order, plan, used, unplaced)
		base := c.DrawIVs(2 * tree.PathBlocks())
		for k, bucket := range path {
			img.PutLazyDummies(bucket, base+2*uint64(k*tree.Z))
			for z, b := range plan[k] {
				if b != nil {
					i := uint64(k*tree.Z + z)
					img.PutLazyBlock(bucket, z, base+2*i+1, base+2*i+2, Block{Addr: b.Addr, Leaf: b.Leaf, Ver: c.NextVer(), Data: b.Data})
					c.Stash.Remove(b.Addr)
				}
			}
		}
	}
	if n := coldPages(img); n != 0 {
		t.Fatalf("after every address was accessed the image holds %d cold pages", n)
	}

	held := float64(img.Footprint()) / float64(tree.Buckets())
	t.Logf("L=%d: the image holds %.1f bytes a bucket", levels, held)
	if held > budget {
		t.Fatalf("the image holds %.1f bytes a bucket, budget %d", held, budget)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := int64(ms.HeapAlloc)
	img.Close()
	c.Image, img = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	without := int64(ms.HeapAlloc)
	runtime.KeepAlive(c)
	onHeap := float64(with-without) / float64(tree.Buckets())
	t.Logf("L=%d: closing the image freed %.1f heap bytes a bucket", levels, onHeap)
	if !regionOnHeap && onHeap > heapBudget {
		t.Fatalf("closing the image freed %.1f heap bytes a bucket, budget %d", onHeap, heapBudget)
	}
}
