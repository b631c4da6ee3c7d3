package oram

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/rng"
)

// diffSlots reports the first slot in which two images' sealed forms
// differ ("" = identical: IVs, sealed header, sealed payload).
func diffSlots(a, b *Image) string {
	for bucket := uint64(0); bucket < a.Tree.Buckets(); bucket++ {
		for z := 0; z < a.Tree.Z; z++ {
			sa, sb := a.Slot(bucket, z), b.Slot(bucket, z)
			if sa.IV1 != sb.IV1 || sa.IV2 != sb.IV2 ||
				!bytes.Equal(sa.SealedHeader, sb.SealedHeader) ||
				!bytes.Equal(sa.SealedData, sb.SealedData) {
				return fmt.Sprintf("bucket %d slot %d", bucket, z)
			}
		}
	}
	return ""
}

// TestBornLazyImageIdentity: for one seed, an image born lazy is the
// eager image with its AES postponed. Right after construction and again
// after 2000 accesses, materializing it (DisableLazySeal) must give the
// eager twin's image slot for slot, and until then construction must
// have written nothing to the store.
func TestBornLazyImageIdentity(t *testing.T) {
	for _, accesses := range []int{0, 2000} {
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
		r := rng.New(5)
		for i := 0; i < accesses; i++ {
			addr := Addr(r.Uint64n(p.NumBlocks))
			op, data := OpRead, []byte(nil)
			if r.Uint64n(2) == 0 {
				op, data = OpWrite, val(addr, i, p.BlockBytes)
			}
			ve, _, errE := eager.Access(op, addr, data)
			vl, _, errL := lazy.Access(op, addr, data)
			if errE != nil || errL != nil {
				t.Fatalf("access %d: eager %v, lazy %v", i, errE, errL)
			}
			if !bytes.Equal(ve, vl) {
				t.Fatalf("access %d addr %d: values diverge", i, addr)
			}
		}
		if eager.NextIV() != lazy.NextIV() || eager.VerSeq() != lazy.VerSeq() {
			t.Fatalf("after %d accesses: IV or version streams diverge", accesses)
		}
		lazy.Image.DisableLazySeal()
		if d := diffSlots(eager.Image, lazy.Image); d != "" {
			t.Fatalf("after %d accesses: born-lazy image differs from the eager one at %s", accesses, d)
		}
	}
}

// churn rewrites a lazy image's slots through every write path, leaving
// a mix of live real entries, live dummies, materialized entries, and
// slots whose overlay entry died under a sealed write.
func churn(img *Image, rounds int) {
	e, iv := img.engine, testIVs()
	r := rng.New(3)
	t := img.Tree
	for i := 0; i < rounds; i++ {
		bucket, z := r.Uint64n(t.Buckets()), int(r.Uint64n(uint64(t.Z)))
		data := bytes.Repeat([]byte{byte(i)}, img.blockB)
		blk := Block{Addr: Addr(i % 50), Leaf: Leaf(r.Uint64n(t.Leaves())), Ver: uint32(i), Data: data}
		switch r.Uint64n(6) {
		case 0, 1:
			img.PutLazyBlock(bucket, z, iv(), iv(), blk)
		case 2:
			img.PutLazyDummy(bucket, z, iv(), iv())
		case 3:
			img.SetSlot(bucket, z, SealBlock(e, blk, iv))
		case 4:
			img.PutSlot(bucket, z, DummySlot(e, img.blockB, iv))
		case 5:
			img.Slot(bucket, z) // an observer materializes the entry
		}
	}
}

// TestReadBucketOverlayMatchesSealed: ReadBucket and CountReal read live
// overlay entries where they lie. For every slot of a churned image that
// must be what decrypting the sealed slot gives.
func TestReadBucketOverlayMatchesSealed(t *testing.T) {
	e := testEngine()
	tree := NewTree(4, 4)
	img := newLazyImage(tree, e, 64, testIVs())
	churn(img, 3000)

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
	for _, ps := range img.plain {
		if ps.state&(psLive|psSealed) == psLive|psSealed {
			sealedBefore++
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
	if sealedBefore == len(img.plain) {
		t.Fatal("ReadBucket/CountReal materialized the whole image")
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

	undo := img.SetSlot(6, 1, DummySlot(e, 64, iv))
	img.PutLazyBlock(6, 1, 200, 201, Block{Addr: 9, Leaf: 4, Ver: 8, Data: bytes.Repeat([]byte{2}, 64)})
	img.Slot(6, 1)
	img.PutLazyBlock(6, 1, 300, 301, Block{Addr: 9, Leaf: 5, Ver: 9, Data: bytes.Repeat([]byte{3}, 64)})
	img.Slot(6, 1)
	undo()

	got := img.Slot(6, 1)
	if got.IV1 != want.IV1 || got.IV2 != want.IV2 ||
		!bytes.Equal(got.SealedHeader, want.SealedHeader) || !bytes.Equal(got.SealedData, want.SealedData) {
		t.Fatal("undo did not restore the pre-write ciphertext")
	}
	if blk, err := OpenSlot(e, got); err != nil || blk.Addr != 9 || blk.Ver != 7 {
		t.Fatalf("restored slot opens to %+v (%v)", blk, err)
	}
}
