package integrity

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cryptoeng"
	"repro/internal/oram"
	"repro/internal/rng"
)

// ivSource is a unique-IV counter starting at a random offset drawn
// from r.
func ivSource(r *rng.Rand) func() uint64 {
	ctr := r.Uint64()
	return func() uint64 {
		ctr++
		return ctr
	}
}

// dummySlot seals a 64-byte dummy into freshly allocated buffers.
func dummySlot(eng *cryptoeng.Engine, iv func() uint64) oram.Slot {
	return oram.DummySlotInto(eng, 64, iv, make([]byte, oram.HeaderBytes), make([]byte, 64))
}

// fixture builds a small image and its Merkle tree.
func fixture(t *testing.T) (*oram.Image, *Tree, *cryptoeng.Engine, func() uint64) {
	t.Helper()
	eng := cryptoeng.MustNew([]byte("0123456789abcdef"))
	iv := ivSource(rng.New(4))
	geom := oram.NewTree(4, 4)
	img := oram.NewImage(geom, eng, 64, iv)
	read := func(b uint64) []oram.Slot {
		out := make([]oram.Slot, geom.Z)
		for z := 0; z < geom.Z; z++ {
			out[z] = img.Slot(b, z)
		}
		return out
	}
	return img, New(geom, read), eng, iv
}

func reader(img *oram.Image) BucketReader {
	return func(b uint64) []oram.Slot {
		out := make([]oram.Slot, img.Tree.Z)
		for z := 0; z < img.Tree.Z; z++ {
			out[z] = img.Slot(b, z)
		}
		return out
	}
}

func TestFreshTreeVerifies(t *testing.T) {
	img, mt, _, _ := fixture(t)
	for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
		if err := mt.VerifyPath(l, reader(img)); err != nil {
			t.Fatalf("fresh path %d: %v", l, err)
		}
	}
}

func TestTamperDetected(t *testing.T) {
	img, mt, eng, iv := fixture(t)
	// Replace a slot without updating the tree: tampering.
	img.SetSlot(7, 2, dummySlot(eng, iv))
	// Bucket 7 is on the paths through it; find one.
	found := false
	for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
		if img.Tree.OnPath(7, l) {
			if err := mt.VerifyPath(l, reader(img)); err == nil {
				t.Fatalf("tampered path %d verified", l)
			}
			found = true
		} else if err := mt.VerifyPath(l, reader(img)); err != nil {
			t.Fatalf("untampered path %d failed: %v", l, err)
		}
	}
	if !found {
		t.Fatal("no path crossed the tampered bucket")
	}
}

func TestBitFlipInSealedDataDetected(t *testing.T) {
	img, mt, _, _ := fixture(t)
	s := img.Slot(3, 1)
	s.SealedData = append([]byte(nil), s.SealedData...)
	s.SealedData[5] ^= 0x80
	img.SetSlot(3, 1, s)
	detected := false
	for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
		if img.Tree.OnPath(3, l) && mt.VerifyPath(l, reader(img)) != nil {
			detected = true
		}
	}
	if !detected {
		t.Fatal("single bit flip not detected")
	}
}

func TestIVTamperDetected(t *testing.T) {
	img, mt, _, _ := fixture(t)
	s := img.Slot(0, 0)
	s.IV2++
	img.SetSlot(0, 0, s)
	// Bucket 0 is the root: every path must now fail.
	for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
		if err := mt.VerifyPath(l, reader(img)); err == nil {
			t.Fatalf("IV tamper on root bucket not detected on path %d", l)
		}
	}
}

func TestUpdateThenVerify(t *testing.T) {
	img, mt, eng, iv := fixture(t)
	l := oram.Leaf(9)
	path := img.Tree.Path(l)
	// Rewrite the whole path with fresh dummies (an eviction's effect).
	newSlots := make([][]oram.Slot, len(path))
	for k := range path {
		row := make([]oram.Slot, img.Tree.Z)
		for z := range row {
			row[z] = dummySlot(eng, iv)
		}
		newSlots[k] = row
	}
	up := mt.ComputeUpdate(l, newSlots)
	if len(up.Buckets) != len(path) || len(up.Root) != HashSize {
		t.Fatalf("update shape: %d buckets, root %d bytes", len(up.Buckets), len(up.Root))
	}
	// Apply to both image and tree (as the WPQ batch does atomically).
	for k, b := range path {
		for z := range newSlots[k] {
			img.SetSlot(b, z, newSlots[k][z])
		}
	}
	mt.Apply(up)
	for ll := oram.Leaf(0); uint64(ll) < img.Tree.Leaves(); ll++ {
		if err := mt.VerifyPath(ll, reader(img)); err != nil {
			t.Fatalf("post-update path %d: %v", ll, err)
		}
	}
	if bytes.Equal(up.Root, make([]byte, HashSize)) {
		t.Fatal("root is zero")
	}
}

func TestApplyWithoutImageUpdateFails(t *testing.T) {
	// Applying the hash update WITHOUT the matching data write (a torn,
	// non-atomic update) must be detectable — the reason the update
	// rides in the WPQ batch.
	img, mt, eng, iv := fixture(t)
	l := oram.Leaf(3)
	path := img.Tree.Path(l)
	newSlots := make([][]oram.Slot, len(path))
	for k := range path {
		row := make([]oram.Slot, img.Tree.Z)
		for z := range row {
			row[z] = dummySlot(eng, iv)
		}
		newSlots[k] = row
	}
	mt.Apply(mt.ComputeUpdate(l, newSlots))
	if err := mt.VerifyPath(l, reader(img)); err == nil {
		t.Fatal("torn hash/data update verified")
	}
}

func TestBucketHashSensitivity(t *testing.T) {
	eng := cryptoeng.MustNew([]byte("0123456789abcdef"))
	iv := ivSource(rng.New(8))
	a := []oram.Slot{dummySlot(eng, iv)}
	b := []oram.Slot{dummySlot(eng, iv)}
	if bytes.Equal(BucketHash(a), BucketHash(b)) {
		t.Fatal("distinct sealed buckets hash equal")
	}
	if !bytes.Equal(BucketHash(a), BucketHash(a)) {
		t.Fatal("hash not deterministic")
	}
}

// TestSlotFieldTamperTable flips each attacker-visible slot field in
// turn and checks that every one is covered by the bucket hash: a
// change to any of them must fail verification on some path through
// the tampered bucket.
func TestSlotFieldTamperTable(t *testing.T) {
	cases := []struct {
		name   string
		bucket uint64
		slot   int
		tamper func(s *oram.Slot)
	}{
		{"IV1", 5, 0, func(s *oram.Slot) { s.IV1 ^= 1 }},
		{"IV2", 5, 1, func(s *oram.Slot) { s.IV2 ^= 1 << 63 }},
		{"SealedHeader", 11, 2, func(s *oram.Slot) {
			s.SealedHeader = append([]byte(nil), s.SealedHeader...)
			s.SealedHeader[0] ^= 0x01
		}},
		{"SealedData", 11, 3, func(s *oram.Slot) {
			s.SealedData = append([]byte(nil), s.SealedData...)
			s.SealedData[len(s.SealedData)-1] ^= 0x01
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img, mt, _, _ := fixture(t)
			s := img.Slot(tc.bucket, tc.slot)
			tc.tamper(&s)
			img.SetSlot(tc.bucket, tc.slot, s)
			detected := false
			for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
				if img.Tree.OnPath(tc.bucket, l) && mt.VerifyPath(l, reader(img)) != nil {
					detected = true
				}
			}
			if !detected {
				t.Fatalf("%s tamper in bucket %d slot %d not detected", tc.name, tc.bucket, tc.slot)
			}
		})
	}
}

// TestStoredNodeTamperTable corrupts a stored node hash (the
// NVM-resident Merkle metadata) without touching any data. Paths that
// use the corrupted node as an off-path sibling must fail; paths
// THROUGH the bucket recompute its hash from data and must still pass —
// the asymmetry that makes sibling hashes trustworthy only via the
// root.
func TestStoredNodeTamperTable(t *testing.T) {
	for _, bucket := range []uint64{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("bucket%d", bucket), func(t *testing.T) {
			img, mt, _, _ := fixture(t)
			mt.Node(bucket)[0] ^= 0xff // Node returns the live slice: NVM bit rot.
			var onPathFailures, offPathFailures, offPathChecked int
			for l := oram.Leaf(0); uint64(l) < img.Tree.Leaves(); l++ {
				err := mt.VerifyPath(l, reader(img))
				if img.Tree.OnPath(bucket, l) {
					if err != nil {
						onPathFailures++
					}
					continue
				}
				// Only paths whose recomputation consumes the corrupted
				// node as a sibling are affected: those through its parent.
				if img.Tree.OnPath((bucket-1)/2, l) {
					offPathChecked++
					if err != nil {
						offPathFailures++
					}
				} else if err != nil {
					t.Fatalf("path %d far from tampered node failed: %v", l, err)
				}
			}
			if onPathFailures != 0 {
				t.Fatalf("%d paths through the bucket failed; recomputed hashes should not use the stored node", onPathFailures)
			}
			if offPathChecked == 0 || offPathFailures != offPathChecked {
				t.Fatalf("sibling corruption missed: %d/%d affected paths failed", offPathFailures, offPathChecked)
			}
		})
	}
}

// TestRootAndSnapshotAreCopies pins that Root and Snapshot hand back
// independent copies: scribbling on the returned slice must not
// invalidate the tree's trusted root.
func TestRootAndSnapshotAreCopies(t *testing.T) {
	img, mt, _, _ := fixture(t)
	for _, get := range []struct {
		name string
		fn   func() []byte
	}{
		{"Root", mt.Root},
		{"Snapshot", mt.Snapshot},
	} {
		before := mt.Root()
		got := get.fn()
		if !bytes.Equal(got, before) {
			t.Fatalf("%s disagrees with Root", get.name)
		}
		for i := range got {
			got[i] = 0
		}
		if !bytes.Equal(mt.Root(), before) {
			t.Fatalf("mutating %s()'s return corrupted the trusted root", get.name)
		}
		if err := mt.VerifyPath(0, reader(img)); err != nil {
			t.Fatalf("tree broken after mutating %s copy: %v", get.name, err)
		}
	}
}

// TestComputeUpdateIsPure pins that ComputeUpdate stages without
// side effects: until Apply runs, the tree state and root are
// untouched, so a crash between compute and the WPQ batch loses
// nothing.
func TestComputeUpdateIsPure(t *testing.T) {
	img, mt, eng, iv := fixture(t)
	rootBefore := mt.Root()
	l := oram.Leaf(6)
	path := img.Tree.Path(l)
	newSlots := make([][]oram.Slot, len(path))
	for k := range path {
		row := make([]oram.Slot, img.Tree.Z)
		for z := range row {
			row[z] = dummySlot(eng, iv)
		}
		newSlots[k] = row
	}
	up := mt.ComputeUpdate(l, newSlots)
	if bytes.Equal(up.Root, rootBefore) {
		t.Fatal("update root matches old root for changed content")
	}
	if !bytes.Equal(mt.Root(), rootBefore) {
		t.Fatal("ComputeUpdate mutated the trusted root")
	}
	for ll := oram.Leaf(0); uint64(ll) < img.Tree.Leaves(); ll++ {
		if err := mt.VerifyPath(ll, reader(img)); err != nil {
			t.Fatalf("path %d broken by a compute-only update: %v", ll, err)
		}
	}
}
