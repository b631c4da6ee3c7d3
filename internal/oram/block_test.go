package oram

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/cryptoeng"
	"repro/internal/rng"
)

func testEngine() *cryptoeng.Engine {
	return cryptoeng.MustNew([]byte("0123456789abcdef"))
}

// ivSource is a unique-IV counter starting at a random offset drawn
// from r, the same stream a Controller's NextIV yields.
func ivSource(r *rng.Rand) func() uint64 {
	ctr := r.Uint64()
	return func() uint64 {
		ctr++
		return ctr
	}
}

func testIVs() func() uint64 {
	return ivSource(rng.New(1))
}

// sealBlock seals b into freshly allocated buffers.
func sealBlock(e *cryptoeng.Engine, b Block, nextIV func() uint64) Slot {
	return SealBlockInto(e, b, nextIV, make([]byte, HeaderBytes), make([]byte, len(b.Data)))
}

// dummySlot seals a dummy into freshly allocated buffers.
func dummySlot(e *cryptoeng.Engine, blockBytes int, nextIV func() uint64) Slot {
	return DummySlotInto(e, blockBytes, nextIV, make([]byte, HeaderBytes), make([]byte, blockBytes))
}

func TestSealOpenRoundTrip(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	b := Block{Addr: 42, Leaf: 7, Data: []byte("sixty-four bytes of payload for the oram block, padded......!!")}
	slot := sealBlock(e, b, iv)
	got, err := OpenSlot(e, slot)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != b.Addr || got.Leaf != b.Leaf || !bytes.Equal(got.Data, b.Data) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestSealedSlotHidesContent(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	data := []byte("plaintext secret")
	slot := sealBlock(e, Block{Addr: 1, Leaf: 2, Data: data}, iv)
	if bytes.Contains(slot.SealedData, data) {
		t.Fatal("payload visible in sealed slot")
	}
	// The header (addr, leaf) must not be readable either.
	if bytes.Contains(slot.SealedHeader, []byte{1, 0, 0, 0, 0, 0, 0, 0}) {
		t.Fatal("address bytes visible in sealed header")
	}
}

func TestDummySlotLooksLikeRealSlot(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	d := dummySlot(e, 64, iv)
	r := sealBlock(e, Block{Addr: 1, Leaf: 2, Data: make([]byte, 64)}, iv)
	if len(d.SealedData) != len(r.SealedData) || len(d.SealedHeader) != len(r.SealedHeader) {
		t.Fatal("dummy and real slots differ in shape")
	}
	got, err := OpenSlot(e, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dummy() {
		t.Fatal("dummy slot decrypts to a real block")
	}
}

func TestOpenSlotRejectsCorruptHeader(t *testing.T) {
	e := testEngine()
	s := dummySlot(e, 64, testIVs())
	s.SealedHeader = s.SealedHeader[:4]
	if _, err := OpenSlot(e, s); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestSealBlockProperty(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	f := func(addr uint64, leaf uint32, payload []byte) bool {
		b := Block{Addr: Addr(addr), Leaf: Leaf(leaf), Data: payload}
		got, err := OpenSlot(e, sealBlock(e, b, iv))
		return err == nil && got.Addr == b.Addr && got.Leaf == b.Leaf && bytes.Equal(got.Data, b.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIVSourceUnique: the controller's IV stream never repeats, whether
// drawn one at a time (NextIV) or reserved in runs (DrawIVs).
func TestIVSourceUnique(t *testing.T) {
	c := mustNew(t, smallParams(9))
	seen := map[uint64]bool{}
	see := func(v uint64) {
		if seen[v] {
			t.Fatal("IV repeated")
		}
		seen[v] = true
	}
	for i := 0; i < 10000; i++ {
		see(c.NextIV())
		n := i%7 + 1
		base := c.DrawIVs(n)
		for k := 1; k <= n; k++ {
			see(base + uint64(k))
		}
	}
}

// TestImagePutLazyUndoable: the undoable write applies at once, and
// rolling its log entry back restores the slot's previous content — an
// overlay entry, or, under a slot PutSlot wrote, the store's bytes.
// Released, or complete by the cycle a power failure strikes, the write
// stands; completing after it, it is rolled back.
func TestImagePutLazyUndoable(t *testing.T) {
	e := testEngine()
	blk := Block{Addr: 4, Leaf: 1, Ver: 3, Data: bytes.Repeat([]byte{7}, 64)}
	for _, c := range []struct {
		name  string
		end   func(img *Image) // ends the write's life in the log
		keeps bool
	}{
		{"Rollback at an earlier cycle", func(img *Image) { img.Rollback(0, 99) }, false},
		{"Rollback at the completion", func(img *Image) { img.Rollback(0, 100) }, true},
		{"Release", func(img *Image) { img.Release(0, NeverDone) }, true},
		{"Release at the completion, then Rollback", func(img *Image) { img.Release(0, 100); img.Rollback(0, 0) }, true},
		{"Release at an earlier cycle, then Rollback", func(img *Image) { img.Release(0, 99); img.Rollback(0, 0) }, false},
	} {
		for _, stored := range []bool{false, true} {
			iv := testIVs()
			img := NewImage(NewTree(3, 2), e, 64, iv)
			if stored {
				img.PutSlot(5, 1, dummySlot(e, 64, iv))
			}
			orig := img.Slot(5, 1)
			orig.SealedHeader = append([]byte(nil), orig.SealedHeader...)
			orig.SealedData = append([]byte(nil), orig.SealedData...)
			iv1, iv2 := iv(), iv()
			written := sealBlockIVs(e, blk, iv1, iv2)
			img.PutLazyUndoable(5, 1, iv1, iv2, blk, 100)
			if !sameSlot(img.Slot(5, 1), written) {
				t.Fatalf("%s: PutLazyUndoable did not apply", c.name)
			}
			c.end(img)
			if img.Mark() != 0 {
				t.Fatalf("%s: the log still holds %d entries", c.name, img.Mark())
			}
			want, what := orig, "the write was not rolled back"
			if c.keeps {
				want, what = written, "the write did not stand"
			}
			if !sameSlot(img.Slot(5, 1), want) {
				t.Fatalf("%s: %s (previous content in the store: %v)", c.name, what, stored)
			}
		}
	}
}

// sealBlockIVs seals b under the given IVs into freshly allocated buffers.
func sealBlockIVs(e *cryptoeng.Engine, b Block, iv1, iv2 uint64) Slot {
	return SealBlockIVs(e, b, iv1, iv2, make([]byte, HeaderBytes), make([]byte, len(b.Data)))
}

func TestImageInitBlocksPlacesOnPath(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	tr := NewTree(4, 4)
	img := NewImage(tr, e, 64, iv)
	leaves := []Leaf{3, 3, 12}
	img.InitBlocks(uint64(len(leaves)), func(a Addr) Leaf { return leaves[a] }, iv)
	n, err := img.CountReal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("CountReal = %d", n)
	}
	// Each block must sit on its leaf's path.
	for a, l := range leaves {
		found := false
		for _, bucket := range tr.Path(l) {
			got, err := img.ReadBucket(bucket)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range got {
				if b.Addr == Addr(a) && b.Leaf == l {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("block %d not on path %d", a, l)
		}
	}
}

func TestImageInitBlocksOverflowReturnsUnplaced(t *testing.T) {
	e := testEngine()
	iv := testIVs()
	tr := NewTree(2, 1) // 7 slots, path holds 3
	img := NewImage(tr, e, 8, iv)
	// 4 blocks on the same leaf's 3-slot path
	unplaced := img.InitBlocks(4, func(Addr) Leaf { return 0 }, iv)
	if len(unplaced) != 1 || unplaced[0] != 3 {
		t.Fatalf("unplaced = %v, want the fourth block", unplaced)
	}
	n, err := img.CountReal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("placed %d blocks, want 3", n)
	}
}

// wrappedStorage stands in for a durable backend: a Persistent store
// whose barrier does nothing. It counts the slot writes that reach it.
type wrappedStorage struct {
	Storage
	sets *int
}

// wrappedImage builds an image born lazy over a wrappedStorage that
// counts its slot writes into sets.
func wrappedImage(tree Tree, e *cryptoeng.Engine, blockBytes int, sets *int) *Image {
	img, err := NewImageInto(wrappedStorage{newMemStorage(tree), sets}, tree, e, blockBytes, testIVs())
	if err != nil {
		panic(err)
	}
	return img
}

func (w wrappedStorage) SetSlot(bucket uint64, z int, s Slot) {
	*w.sets++
	w.Storage.SetSlot(bucket, z, s)
}

func (w wrappedStorage) Persist() error { return nil }

// Deferred seals are queued for the persist-time barrier only when a
// durable backend will run it: an in-memory image's pending list stays
// empty however many slots are written lazily, while a durable one
// queues each slot once and drains at MaterializePending — sealing each
// queued slot once, whole-bucket writes included, because an image over
// a Persistent store never takes the record form.
func TestLazySealPendingOnlyForDurableBackends(t *testing.T) {
	e := testEngine()
	tree := NewTree(3, 2)
	writeAll := func(img *Image) {
		for round := 0; round < 3; round++ {
			for b := uint64(0); b < tree.Buckets(); b++ {
				img.PutLazyDummies(b, 10*b)
				img.PutLazyBlock(b, 1, 10*b+3, 10*b+4, Block{Addr: Addr(b), Data: make([]byte, 64)})
			}
		}
	}

	mem := NewImage(tree, e, 64, testIVs())
	writeAll(mem)
	if len(mem.pending) != 0 {
		t.Fatalf("in-memory image queued %d deferred seals nobody drains", len(mem.pending))
	}
	if _, ok := mem.RealSlots(0); !ok {
		t.Fatal("a whole-bucket write on an in-memory image did not leave the bucket in record form")
	}

	sets := 0
	dur := wrappedImage(tree, e, 64, &sets)
	writeAll(dur)
	if _, ok := dur.RealSlots(0); ok || dur.recordForm {
		t.Fatal("an image over a durable store took the record form")
	}
	want := int(tree.Slots())
	if len(dur.pending) != want {
		t.Fatalf("durable image queued %d deferred seals, want one per written slot (%d)", len(dur.pending), want)
	}
	sets = 0
	dur.MaterializePending()
	if len(dur.pending) != 0 {
		t.Fatalf("barrier left %d deferred seals queued", len(dur.pending))
	}
	if sets != want {
		t.Fatalf("barrier wrote %d sealed slots to the store, want each queued slot once (%d)", sets, want)
	}
	if blk, err := OpenSlot(e, dur.store.Slot(3, 1)); err != nil || blk.Addr != 3 {
		t.Fatalf("the barrier stored %+v (%v) for a real slot", blk, err)
	}
}
