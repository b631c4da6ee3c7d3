package oram

import (
	"bytes"
	"fmt"
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

// TestBornLazyImageIdentity: for one seed, an image born lazy is the
// eager image with its AES postponed. Right after construction, and
// again after every overlay write path has run on it, materializing it
// (DisableLazySeal) must give the eager twin's image slot for slot, and
// until then construction must have written nothing to the store. (The
// same identity across protocol accesses is core's
// TestBornLazySnapshotIdentity.)
func TestBornLazyImageIdentity(t *testing.T) {
	for _, steps := range []int{0, 1500} {
		p := smallParams(11)
		eager := mustNew(t, p)
		p.LazySeal = true
		lazy := mustNew(t, p)
		if !lazy.Image.LazySeal() || eager.Image.LazySeal() {
			t.Fatal("Params.LazySeal did not select the born-lazy image")
		}
		for bucket, row := range lazy.Image.store.(*memStorage).buckets {
			if row != nil {
				t.Fatalf("born-lazy construction wrote bucket %d of the store", bucket)
			}
		}
		if lazy.Image.memo != nil {
			t.Fatal("born-lazy construction materialized ciphertext")
		}
		if eager.NextIV() != lazy.NextIV() || eager.VerSeq() != lazy.VerSeq() {
			t.Fatal("construction: IV or version streams diverge")
		}
		// Every overlay write path, whole-bucket writes included, on the
		// lazy image and its sealed equivalent on the eager one.
		churn(t, lazy.Image, eager.Image, steps)
		lazy.Image.DisableLazySeal()
		if d := diffSlots(eager.Image, lazy.Image); d != "" {
			t.Fatalf("after %d overlay writes: born-lazy image differs from the eager one at %s", steps, d)
		}
	}
}

// overlayModel drives a lazy image through every write path of the
// overlay and, when ref is set, an eagerly sealed reference image through
// the sealed equivalent of each write under the same IVs: whatever an
// observer then reads from the lazy image must be the reference's bytes.
type overlayModel struct {
	t         *testing.T
	lazy, ref *Image
	iv        func() uint64
	undo      []func() // the last SetSlot's undo closures, one per image
	step      int
}

// sealed seals b (nil = a dummy) under the given IVs into fresh buffers.
func (m *overlayModel) sealed(b *Block, iv1, iv2 uint64) Slot {
	hdr, data := make([]byte, HeaderBytes), make([]byte, m.lazy.blockB)
	if b == nil {
		return DummySlotIVs(m.lazy.engine, m.lazy.blockB, iv1, iv2, hdr, data)
	}
	return SealBlockIVs(m.lazy.engine, *b, iv1, iv2, hdr, data)
}

// apply runs one operation: op selects it, sel the slot (or bucket) and
// arg its variable part.
func (m *overlayModel) apply(op, sel, arg byte) {
	m.step++
	t := m.lazy.Tree
	idx := uint64(sel) % t.Slots()
	bucket, z := idx/uint64(t.Z), int(idx%uint64(t.Z))
	blk := Block{Addr: Addr(arg % 50), Leaf: Leaf(uint64(arg) % t.Leaves()), Ver: uint32(m.step),
		Data: bytes.Repeat([]byte{arg}, m.lazy.blockB)}
	toRef := func(z int, s Slot) {
		if m.ref != nil {
			m.ref.SetSlot(bucket, z, s)
		}
	}
	switch op % 9 {
	case 0, 1:
		iv1, iv2 := m.iv(), m.iv()
		m.lazy.PutLazyBlock(bucket, z, iv1, iv2, blk)
		toRef(z, m.sealed(&blk, iv1, iv2))
	case 2:
		iv1, iv2 := m.iv(), m.iv()
		m.lazy.PutLazyDummy(bucket, z, iv1, iv2)
		toRef(z, m.sealed(nil, iv1, iv2))
	case 3, 4:
		// A path write-back's write of one bucket: 2Z consecutive IVs in
		// slot order, dummies everywhere but the slots arg picks.
		base := m.iv() - 1
		for i := 1; i < 2*t.Z; i++ {
			m.iv()
		}
		m.lazy.PutLazyDummies(bucket, base)
		for z := 0; z < t.Z; z++ {
			iv1, iv2 := base+2*uint64(z)+1, base+2*uint64(z)+2
			if arg>>uint(z%8)&1 == 0 {
				toRef(z, m.sealed(nil, iv1, iv2))
				continue
			}
			b := blk
			b.Addr += Addr(z)
			m.lazy.PutLazyBlock(bucket, z, iv1, iv2, b)
			toRef(z, m.sealed(&b, iv1, iv2))
		}
	case 5:
		iv1, iv2 := m.iv(), m.iv()
		m.undo = m.undo[:0]
		for _, img := range []*Image{m.lazy, m.ref} {
			if img != nil {
				m.undo = append(m.undo, img.SetSlot(bucket, z, m.sealed(&blk, iv1, iv2)))
			}
		}
	case 6:
		for _, undo := range m.undo {
			undo()
		}
		m.undo = m.undo[:0]
	case 7:
		iv1, iv2 := m.iv(), m.iv()
		m.lazy.PutSlot(bucket, z, m.sealed(nil, iv1, iv2))
		if m.ref != nil {
			m.ref.PutSlot(bucket, z, m.sealed(nil, iv1, iv2))
		}
	case 8:
		got := m.lazy.Slot(bucket, z) // an observer materializes the entry
		if m.ref != nil && !sameSlot(got, m.ref.Slot(bucket, z)) {
			m.t.Fatalf("step %d: bucket %d slot %d: the lazy image's sealed bytes differ from the reference", m.step, bucket, z)
		}
	}
}

// check compares what the lazy image holds — read in place, without
// materializing — with the reference's bucket by bucket.
func (m *overlayModel) check() {
	m.t.Helper()
	e := m.lazy.engine
	for bucket := uint64(0); bucket < m.lazy.Tree.Buckets(); bucket++ {
		got, err := m.lazy.ReadBucket(e, bucket)
		if err != nil {
			m.t.Fatal(err)
		}
		want, err := m.ref.ReadBucket(e, bucket)
		if err != nil {
			m.t.Fatal(err)
		}
		for z := range want {
			g, w := got[z], want[z]
			if g.Addr != w.Addr || g.Leaf != w.Leaf || g.Ver != w.Ver || !bytes.Equal(g.Data, w.Data) {
				m.t.Fatalf("step %d: bucket %d slot %d reads %+v, the reference %+v", m.step, bucket, z, g, w)
			}
		}
	}
	got, err := m.lazy.CountReal(e)
	if err != nil {
		m.t.Fatal(err)
	}
	if want, _ := m.ref.CountReal(e); got != want {
		m.t.Fatalf("step %d: CountReal = %d, the reference holds %d", m.step, got, want)
	}
}

// churn rewrites a lazy image's slots through every write path, leaving
// a mix of record-form buckets, live real entries, live dummies, materialized
// entries, and slots whose overlay entry died under a sealed write; ref,
// if not nil, follows it eagerly sealed.
func churn(t *testing.T, img, ref *Image, rounds int) {
	m := &overlayModel{t: t, lazy: img, ref: ref, iv: testIVs()}
	r := rng.New(3)
	for i := 0; i < rounds; i++ {
		x := r.Uint64()
		m.apply(byte(x), byte(x>>8), byte(x>>16))
	}
}

// FuzzImageOverlay feeds the model coverage-guided operation sequences:
// a born-lazy image against an eager one built from the same IVs, at
// Z = 4 (one record per cache line) and at Z = 2. After every observer
// call, and bucket by bucket at the end, the two agree.
func FuzzImageOverlay(f *testing.F) {
	f.Add([]byte{3, 5, 0x05, 8, 5, 0, 2, 6, 0, 8, 6, 0})                // whole-bucket write, observe, expand by a per-slot dummy
	f.Add([]byte{4, 9, 0x0f, 5, 9, 7, 3, 9, 0x02, 6, 0, 0, 8, 9, 0})    // SetSlot on a record-form bucket, rewritten whole, then undone
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
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := testEngine()
		for _, tree := range []Tree{NewTree(3, 4), NewTree(3, 2)} {
			m := &overlayModel{t: t, lazy: newLazyImage(tree, e, 32, testIVs()), ref: NewImage(tree, e, 32, testIVs()), iv: ivSource(rng.New(2))}
			for i := 0; i+2 < len(ops); i += 3 {
				m.apply(ops[i], ops[i+1], ops[i+2])
				if i%48 == 0 {
					m.check()
				}
			}
			m.check()
			m.lazy.DisableLazySeal()
			if d := diffSlots(m.lazy, m.ref); d != "" {
				t.Fatalf("Z=%d: materialized image differs from the reference at %s", tree.Z, d)
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
	img := newLazyImage(tree, e, 64, testIVs())
	churn(t, img, nil, 3000)

	var direct [][]Block
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		blocks, err := img.ReadBucket(e, bucket)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, blocks)
	}
	counted, err := img.CountReal(e)
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
			if st := img.cold[img.slotIndex(bucket, z)].state; st&(psLive|psSealed) == psLive|psSealed {
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
	if sealedBefore == len(img.cold) {
		t.Fatal("ReadBucket/CountReal materialized the whole image")
	}
}

// TestDenseBucketMatchesPerSlot: a whole-bucket write leaves the bucket
// in record form, which must be indistinguishable from the Z per-slot
// writes it stands for — read in place, and sealed — before and after
// every per-slot operation. A PutLazyBlock keeps the form, with the
// slot's explicit-IV bit set unless the IVs are the slot's implied pair;
// every other mutator expands the bucket. The white-box half pins what
// the form is for: the write touches no cold entry, neither a dummy's
// nor a real slot's under the implied IVs.
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
		whole, perSlot = newLazyImage(tree, e, 64, testIVs()), newLazyImage(tree, e, 64, testIVs())
		for _, img := range []*Image{whole, perSlot} {
			for z := 0; z < tree.Z; z++ {
				img.PutLazyBlock(bucket, z, 1, 2, old)
			}
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
	same := func(when string, whole, perSlot *Image) {
		t.Helper()
		m := &overlayModel{t: t, lazy: whole, ref: perSlot}
		m.check() // ReadBucket and CountReal, in place
		if d := diffSlots(whole, perSlot); d != "" {
			t.Fatalf("%s: sealed images differ at %s", when, d)
		}
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
		if cs := whole.cold[whole.slotIndex(bucket, z)]; cs.iv1 != 1 || cs.iv2 != 2 {
			t.Fatalf("the whole-bucket write touched slot %d's cold entry: %+v", z, cs)
		}
	}
	same("after the write", whole, perSlot)

	iv := testIVs()
	sealed := sealBlock(e, old, iv)
	mutators := []struct {
		name     string
		mutate   func(img *Image, z int)
		explicit bool // keeps the record form, with this explicit bit
	}{
		{"PutLazyBlock, explicit IVs", func(img *Image, z int) { img.PutLazyBlock(bucket, z, 77, 78, old) }, true},
		{"PutLazyBlock, implied IVs", func(img *Image, z int) {
			iv1, iv2 := ivs(z)
			img.PutLazyBlock(bucket, z, iv1, iv2, old)
		}, false},
		{"PutLazyDummy", func(img *Image, z int) { img.PutLazyDummy(bucket, z, 77, 78) }, false},
		{"SetSlot", func(img *Image, z int) { img.SetSlot(bucket, z, sealed) }, false},
		{"SetSlot and undo", func(img *Image, z int) { img.SetSlot(bucket, z, sealed)() }, false},
		{"PutSlot", func(img *Image, z int) { img.PutSlot(bucket, z, sealed) }, false},
		{"Slot", func(img *Image, z int) { img.Slot(bucket, z) }, false},
		// The undo of a SetSlot that a whole-bucket write has overwritten
		// in the meantime: the restored slot survives the expansion.
		{"undo over a record-form bucket", func(img *Image, z int) {
			undo := img.SetSlot(bucket, z, sealed)
			img.PutLazyDummies(bucket, base)
			undo()
		}, false},
	}
	for i, m := range mutators {
		keeps := i < 2
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
			same(m.name, whole, perSlot)
		}
	}

	// An initial placement into a bucket born in record form keeps the
	// form, under an explicit IV pair.
	img := newLazyImage(tree, e, 64, testIVs())
	img.InitBlocks(e, []Block{{Addr: 1, Leaf: 2, Data: make([]byte, 64)}}, iv)
	leafBucket := tree.Path(2)[tree.L]
	if mask, ok := img.RealSlots(leafBucket); !ok || mask != 1 || img.record(leafBucket)[recExplicit]&^recOn != 1 {
		t.Fatalf("InitBlocks into a record-form bucket left RealSlots = %b, %v", mask, ok)
	}
	// Wider buckets than the masks keep per-slot entries.
	if wide := newLazyImage(NewTree(1, maxRecordZ+1), e, 8, testIVs()); wide.recordForm {
		t.Fatal("an image with Z beyond the mask width uses the record form")
	}
}

// TestRecordLayout pins the layout the load walk relies on: a bucket's
// record is 16+12Z bytes — one cache line at Z = 4 — and the records
// start on a line, and the cold per-slot entry is 24 bytes.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(coldSlot{}); got != 24 {
		t.Fatalf("coldSlot is %d bytes, want 24", got)
	}
	for _, z := range []int{1, 2, 4, 8, maxRecordZ + 1} {
		img := newLazyImage(NewTree(4, z), testEngine(), 16, testIVs())
		if got, want := 4*img.recW, uint64(16+12*z); got != want {
			t.Fatalf("Z=%d: a record is %d bytes, want %d", z, got, want)
		}
		if addr := uintptr(unsafe.Pointer(&img.recs[0])); addr%lineBytes != 0 {
			t.Fatalf("Z=%d: the records start at %#x, not on a %d-byte line", z, addr, lineBytes)
		}
		if uint64(len(img.recs)) != img.Tree.Buckets()*img.recW || uint64(len(img.cold)) != img.Tree.Slots() {
			t.Fatalf("Z=%d: %d record words, %d cold entries for %d buckets", z, len(img.recs), len(img.cold), img.Tree.Buckets())
		}
	}
	if img := newLazyImage(NewTree(4, 4), testEngine(), 16, testIVs()); 4*img.recW != lineBytes {
		t.Fatalf("at Z=4 a record is %d bytes, want one %d-byte line", 4*img.recW, lineBytes)
	}
}

// TestPlainDataViewIsCapped: the payload arena packs slots back to back,
// so a PlainData view must not be appendable into its neighbour.
func TestPlainDataViewIsCapped(t *testing.T) {
	e := testEngine()
	img := newLazyImage(NewTree(3, 2), e, 64, testIVs())
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

// TestSetSlotUndoSurvivesLazyRewrites: SetSlot's undo captures the
// ciphertext a live overlay entry stood for. Rewriting the slot lazily —
// twice, with an observer in between, so the entry's buffers are reused —
// must not reach the capture.
func TestSetSlotUndoSurvivesLazyRewrites(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	img := newLazyImage(NewTree(3, 2), e, 64, testIVs())
	img.PutLazyBlock(6, 1, 100, 101, Block{Addr: 9, Leaf: 3, Ver: 7, Data: bytes.Repeat([]byte{1}, 64)})
	want := SealBlockIVs(e, Block{Addr: 9, Leaf: 3, Ver: 7, Data: bytes.Repeat([]byte{1}, 64)}, 100, 101,
		make([]byte, HeaderBytes), make([]byte, 64))

	undo := img.SetSlot(6, 1, dummySlot(e, 64, iv))
	img.PutLazyBlock(6, 1, 200, 201, Block{Addr: 9, Leaf: 4, Ver: 8, Data: bytes.Repeat([]byte{2}, 64)})
	img.Slot(6, 1)
	img.PutLazyBlock(6, 1, 300, 301, Block{Addr: 9, Leaf: 5, Ver: 9, Data: bytes.Repeat([]byte{3}, 64)})
	img.Slot(6, 1)
	undo()

	got := img.Slot(6, 1)
	if !sameSlot(got, want) {
		t.Fatal("undo did not restore the pre-write ciphertext")
	}
	if blk, err := OpenSlot(e, got); err != nil || blk.Addr != 9 || blk.Ver != 7 {
		t.Fatalf("restored slot opens to %+v (%v)", blk, err)
	}
}
