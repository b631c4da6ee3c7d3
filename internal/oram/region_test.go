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
	if img.recs != nil || img.cell != nil || img.cells != nil {
		t.Fatal("Close left a table pointing into the freed region")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading a closed image did not panic")
		}
	}()
	img.PlainHeader(0, 0)
}
