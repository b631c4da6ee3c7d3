package core_test

import (
	"bytes"
	"crypto/sha256"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

// TestGatherChangesNothing: the gather the load walk runs ahead of
// itself (oram.Image.Gather) only reads. Two twin controllers run the
// same stream; between the accesses of one of them Gather runs over
// every leaf's path. Afterwards the twins read the same buckets in
// place, hold their buckets in the same form, and hash to the same
// state — every sealed slot, stash, position map, counter and the
// clock. Gather allocates nothing, and on a durable image, which has no
// record form, it is a no-op.
func TestGatherChangesNothing(t *testing.T) {
	v := digestVariant{name: "PS-ORAM", scheme: config.SchemePSORAM}
	a, b := v.build(t, false), v.build(t, false)
	img := a.ORAM.Image
	tree := a.ORAM.Tree
	path := make([]uint64, 0, tree.Levels())
	var fold uint64
	for i, o := range digestStream(5, 600) {
		if i%50 == 0 {
			for l := uint64(0); l < tree.Leaves(); l++ {
				path = tree.PathInto(path, oram.Leaf(l))
				fold += img.Gather(path, a.ORAM.PosMap)
			}
		}
		ra, errA := a.Access(o.op, o.addr, o.data)
		rb, errB := b.Access(o.op, o.addr, o.data)
		if errA != nil || errB != nil {
			t.Fatalf("op %d: %v / %v", i, errA, errB)
		}
		if !bytes.Equal(ra.Value, rb.Value) || ra.End != rb.End {
			t.Fatalf("op %d: the twins diverge", i)
		}
	}
	if fold == 0 {
		t.Fatal("Gather read nothing on a lazy in-memory image")
	}
	if allocs := testing.AllocsPerRun(100, func() { img.Gather(path, a.ORAM.PosMap) }); allocs != 0 {
		t.Fatalf("Gather allocates %.1f times per call", allocs)
	}

	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		ma, okA := img.RealSlots(bucket)
		mb, okB := b.ORAM.Image.RealSlots(bucket)
		if ma != mb || okA != okB {
			t.Fatalf("bucket %d: RealSlots %04b,%v vs the twin's %04b,%v", bucket, ma, okA, mb, okB)
		}
		ba, errA := img.ReadBucket(bucket)
		bb, errB := b.ORAM.Image.ReadBucket(bucket)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		for z := range ba {
			if ba[z].Addr != bb[z].Addr || ba[z].Leaf != bb[z].Leaf || ba[z].Ver != bb[z].Ver || !bytes.Equal(ba[z].Data, bb[z].Data) {
				t.Fatalf("bucket %d slot %d reads %+v, the twin %+v", bucket, z, ba[z], bb[z])
			}
		}
	}
	ha, hb := sha256.New(), sha256.New()
	hashState(ha, a)
	hashState(hb, b)
	if !bytes.Equal(ha.Sum(nil), hb.Sum(nil)) {
		t.Fatal("the gathered controller's state differs from its twin's")
	}

	cfg := config.Default()
	cfg.StashEntries = 150
	dur, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: 100, Levels: 5, StoreDir: filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if got := dur.ORAM.Image.Gather(dur.ORAM.Tree.PathInto(nil, 0), dur.ORAM.PosMap); got != 0 {
		t.Errorf("Gather on a durable image read %d, want a no-op", got)
	}
}
