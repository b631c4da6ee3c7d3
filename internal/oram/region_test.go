package oram

import (
	"runtime"
	"testing"
)

// TestDroppedImagesAreFreed: an image nobody closes is freed once the
// collector finds it unreachable, so a fuzzer or an oracle suite that
// builds a controller per input cannot run the process out of mappings.
// Ten thousand small images are built and dropped, with a collection
// every 500; the regions alive at any point stay a few collections'
// worth.
func TestDroppedImagesAreFreed(t *testing.T) {
	const images, every, bound = 10000, 500, 4 * 500
	tree, e := NewTree(3, 4), testEngine()
	base, peak := LiveRegions(), int64(0)
	for i := 1; i <= images; i++ {
		NewImage(tree, e, 64, testIVs())
		if i%every == 0 {
			runtime.GC()
		}
		peak = max(peak, LiveRegions()-base)
	}
	t.Logf("at most %d of %d dropped images were mapped at once", peak, images)
	if peak > bound {
		t.Fatalf("%d dropped images were mapped at once, bound %d", peak, bound)
	}
}

// TestCloseFreesTheRegion: Close unmaps the region and drops the tables,
// so a use after Close fails a bounds check; a second Close is a no-op.
func TestCloseFreesTheRegion(t *testing.T) {
	img := NewImage(NewTree(3, 4), testEngine(), 64, testIVs())
	before := LiveRegions()
	img.Close()
	img.Close()
	if freed := before - LiveRegions(); freed < 1 {
		t.Fatalf("Close freed %d regions", freed)
	}
	if img.recs != nil || img.cells != nil {
		t.Fatal("Close left a table pointing into the freed region")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a closed image did not panic")
		}
	}()
	img.PlainHeader(0, 0)
}

// TestRegionMapFailureIsAnError: a region that mmap refuses comes back as
// an error and maps nothing, and New returns that error — so core.New,
// a pool and a reshard's shard build fail instead of the process.
func TestRegionMapFailureIsAnError(t *testing.T) {
	if regionOnHeap {
		t.Skip("regions are heap slices on this platform")
	}
	before := LiveRegions()
	if r, err := newRegion(1 << 62); err == nil {
		r.free()
		t.Fatal("mapping a 1<<62-byte region succeeded")
	}
	// 29 cells of 1<<56 bytes each: beyond any address space.
	p := Params{Levels: 2, Z: 4, BlockBytes: 1 << 56, StashEntries: 40, NumBlocks: 4}
	if _, err := New(p); err == nil {
		t.Fatal("New built an image whose region cannot be mapped")
	}
	if n := LiveRegions() - before; n > 0 {
		t.Fatalf("the failed constructions left %d regions mapped", n)
	}
}
