package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cfg := testCfg()
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.Addr][]byte)
	r := &lcg{s: 91}
	for i := 0; i < 200; i++ {
		addr := oram.Addr(r.n(100))
		v := blockVal(addr, i, 64)
		if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
			t.Fatal(err)
		}
		ref[addr] = v
	}
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err != nil {
		t.Fatal(err)
	}

	// Loading IS recovery: volatile state (including any pending values
	// not yet merged) is gone; the durable state must be complete.
	loaded, err := LoadDurable(bytes.NewReader(buf.Bytes()), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ORAM.NumBlocks() != 100 || loaded.Scheme != config.SchemePSORAM {
		t.Fatalf("loaded metadata wrong: %d blocks, %v", loaded.ORAM.NumBlocks(), loaded.Scheme)
	}
	// Every address must be readable; values equal the last durable
	// version, which for the snapshotting controller is what Peek would
	// have seen with the volatile overlay dropped.
	for a := oram.Addr(0); a < 100; a++ {
		got, err := loaded.Peek(a)
		if err != nil {
			t.Fatalf("addr %d unreadable after load: %v", a, err)
		}
		if want, err2 := peekDurableOnly(c, a); err2 == nil && !bytes.Equal(got, want) {
			t.Fatalf("addr %d = %.12q, durable source %.12q", a, got, want)
		}
	}
	// The loaded store must be fully operational.
	for i := 0; i < 50; i++ {
		addr := oram.Addr(r.n(100))
		if _, err := loaded.Access(oram.OpRead, addr, nil); err != nil {
			t.Fatalf("post-load access %d: %v", i, err)
		}
	}
}

// peekDurableOnly reads addr through the original controller's durable
// state only (no stash, no temp overlay).
func peekDurableOnly(c *Controller, addr oram.Addr) ([]byte, error) {
	l := c.DurablePosMap().Lookup(addr)
	var best []byte
	bestVer := uint32(0)
	found := false
	for _, bucket := range c.ORAM.Tree.Path(l) {
		blocks, err := c.ORAM.Image.ReadBucket(bucket)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if b.Addr == addr && b.Leaf == l && (!found || b.Ver > bestVer) {
				best, bestVer, found = b.Data, b.Ver, true
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("addr %d has no durable copy (pending in stash)", addr)
	}
	return best, nil
}

func TestSnapshotVersionCursorSurvives(t *testing.T) {
	cfg := testCfg()
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 60, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(i%60), blockVal(0, i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.ORAM.VerSeq()
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDurable(bytes.NewReader(buf.Bytes()), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ORAM.VerSeq() < before {
		t.Fatalf("version cursor regressed: %d -> %d (freshness would invert)", before, loaded.ORAM.VerSeq())
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cfg := testCfg()
	for _, data := range [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PSFM"),
		append([]byte("PSFM"), make([]byte, 36)...),
	} {
		if _, err := LoadDurable(bytes.NewReader(data), cfg, Options{}); err == nil {
			t.Fatalf("garbage snapshot %q accepted", data)
		}
	}
}

func TestSnapshotRejectsRecursive(t *testing.T) {
	c := newCtl(t, config.SchemeRcrPSORAM)
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err == nil {
		t.Fatal("recursive snapshot should be rejected (format does not cover posmap trees)")
	}
	// A stream whose meta record names a recursive scheme, under a valid
	// CRC, is refused on load too.
	snap := writtenSnapshot(t, config.SchemePSORAM, 40, 4)
	binary.LittleEndian.PutUint64(snap[8:], uint64(config.SchemeRcrPSORAM))
	recrc(snap, 0, metaBytes)
	if _, err := LoadDurable(bytes.NewReader(snap), testCfg(), Options{}); err == nil ||
		err.Error() != StorageSupported(config.SchemeRcrPSORAM).Error() {
		t.Fatalf("recursive stream: err = %v, want the StorageSupported refusal", err)
	}
}

func TestDegenerateRecursionDefaultBudget(t *testing.T) {
	// Regression: with the default on-chip posmap budget, small Rcr
	// systems degenerate to a flat Top map — which must be the data
	// ORAM's real map, not an unrelated one.
	cfg := config.Default()
	cfg.StashEntries = 150
	c, err := New(config.SchemeRcrPSORAM, cfg, Options{NumBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rec.Levels) != 0 {
		t.Skip("config produced real recursion; degenerate path not exercised")
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(i*5%256), nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
}

// TestSnapshotRoundTripAllFlatSchemes: save/load round-trips for every
// flat scheme — the loaded controller must preserve the version cursor,
// start with empty volatile state (a load IS a §4.3 recovery), and keep
// serving.
func TestSnapshotRoundTripAllFlatSchemes(t *testing.T) {
	// flatSchemes (storage_test.go) is the snapshot format's coverage
	// set; the count is asserted so a future scheme addition cannot
	// silently fall out of snapshot coverage.
	if len(flatSchemes) != 6 {
		t.Fatalf("expected 6 flat schemes, have %d: %v", len(flatSchemes), flatSchemes)
	}
	for _, scheme := range flatSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			const blocks = 64
			c, err := New(scheme, cfg, Options{NumBlocks: blocks, Levels: 5})
			if err != nil {
				t.Fatal(err)
			}
			r := &lcg{s: uint64(17 + scheme)}
			for i := 0; i < 150; i++ {
				addr := oram.Addr(r.n(blocks))
				if _, err := c.Access(oram.OpWrite, addr, blockVal(addr, i, 64)); err != nil {
					t.Fatal(err)
				}
			}
			wantVer := c.ORAM.VerSeq()
			var buf bytes.Buffer
			if err := c.SaveDurable(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDurable(bytes.NewReader(buf.Bytes()), cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := loaded.ORAM.VerSeq(); got != wantVer {
				t.Errorf("verSeq %d -> %d across round-trip", wantVer, got)
			}
			// Load is recovery: no stash residue, no temp-posmap overlay.
			if live := loaded.ORAM.Stash.Live(); len(live) != 0 {
				t.Errorf("loaded stash holds %d blocks, want 0", len(live))
			}
			for a := oram.Addr(0); a < blocks; a++ {
				if _, ok := loaded.Temp.Lookup(a); ok {
					t.Fatalf("loaded temp posmap has an entry for addr %d", a)
				}
			}
			// Durable contents survived wherever the scheme had persisted
			// them. Baseline keeps its posmap in volatile DRAM and eADR's
			// stash lives in the (unserialized) eADR domain, so for those a
			// remapped block may be unreachable after load — the data loss
			// the paper's design eliminates; the persistent family must
			// read everything back.
			strict := keepsDurablePosMap(scheme)
			for a := oram.Addr(0); a < blocks; a++ {
				got, err := loaded.Peek(a)
				if err != nil {
					if strict {
						t.Fatalf("addr %d unreadable after load: %v", a, err)
					}
					continue
				}
				if want, err2 := peekDurableOnly(c, a); err2 == nil && !bytes.Equal(got, want) {
					t.Fatalf("addr %d = %.12q, durable source %.12q", a, got, want)
				}
			}
			for i := 0; i < 30; i++ {
				addr := oram.Addr(r.n(blocks))
				if _, err := loaded.Access(oram.OpWrite, addr, blockVal(addr, 1000+i, 64)); err != nil {
					// Lossy schemes may have dropped the block entirely
					// (same loss as above, surfaced on access).
					if strict {
						t.Fatalf("post-load access: %v", err)
					}
				}
			}
		})
	}
}

// keepsDurablePosMap reports whether a flat scheme's durable state names
// every block's current leaf, so that a recovered controller reads every
// address: the persistent family does, while Baseline keeps its PosMap
// in volatile DRAM and eADR-ORAM its current map in the unserialized
// eADR domain.
func keepsDurablePosMap(scheme config.Scheme) bool {
	return scheme == config.SchemeFullNVM || scheme == config.SchemeFullNVMSTT ||
		scheme == config.SchemeNaivePSORAM || scheme == config.SchemePSORAM
}

// TestLoadDurableRefusesStoreDir: a snapshot loads into memory. Asked to
// load into a store directory, LoadDurable refuses and creates nothing
// there: a store holding the loaded slots but not the loaded PosMap
// would read wrong values once reopened.
func TestLoadDurableRefusesStoreDir(t *testing.T) {
	snap := writtenSnapshot(t, config.SchemePSORAM, 40, 4)
	dir := filepath.Join(t.TempDir(), "store")
	if c, err := LoadDurable(bytes.NewReader(snap), testCfg(), Options{StoreDir: dir}); err == nil {
		c.Close()
		t.Fatal("a snapshot loaded into a store directory")
	}
	if _, _, err := filestore.Probe(dir); !errors.Is(err, filestore.ErrNoStore) {
		t.Fatalf("the refused load left a store at %s: %v", dir, err)
	}
}

// TestLoadedImageForm guards the form of a loaded controller's image. Its
// store is the stream's contents, which have no persist barrier, so the
// image must queue nothing for one, must take the buckets it rewrites
// back into record form, and must stay within 81 bytes a bucket (73.8
// measured; 113.4 while the headers sat in the record beside a handle
// table). An image in the durable store's per-slot form would pass every
// functional test and grow without bound.
func TestLoadedImageForm(t *testing.T) {
	const levels, budget = 8, 81
	cfg := testCfg()
	blocks := uint64(2) << (levels - 1) // two blocks a leaf, as TestImageFootprint
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: blocks, Levels: levels, Untimed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := &lcg{s: 5}
	run := func(c *Controller, n int) {
		for i := 0; i < n; i++ {
			addr, op, v := oram.Addr(r.n(int(blocks))), oram.OpRead, []byte(nil)
			if i%2 == 0 {
				op, v = oram.OpWrite, blockVal(addr, i, cfg.BlockBytes)
			}
			if _, err := c.Access(op, addr, v); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
		}
	}
	run(c, 2000)
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDurable(&buf, cfg, Options{Untimed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	run(loaded, 5000)
	img, tree := loaded.ORAM.Image, loaded.ORAM.Tree
	if n := img.Queued(); n != 0 {
		t.Fatalf("the loaded image queued %d deferred seals for a barrier nothing runs", n)
	}
	for bucket := uint64(0); bucket < tree.Buckets(); bucket++ {
		if _, ok := img.RealSlots(bucket); !ok {
			t.Fatalf("bucket %d is not in record form after 5000 accesses", bucket)
		}
	}
	held := float64(img.Footprint()) / float64(tree.Buckets())
	t.Logf("L=%d: the loaded image holds %.1f bytes a bucket", levels, held)
	if held > budget {
		t.Fatalf("the loaded image holds %.1f bytes a bucket, budget %d", held, budget)
	}
}

// metaBytes is the length of the stream's leading meta record; the
// state chunk follows it: a 17-byte chunk header, the seal-version
// cursor, the root length, one leaf per block, CRC.
const metaBytes = 40

// stateEnd is where the state chunk of a blocks-block stream ends.
func stateEnd(blocks int) int { return metaBytes + 17 + 8 + 4*blocks + 4 }

// recrc rewrites the CRC32-C that closes the record b[lo:hi].
func recrc(b []byte, lo, hi int) {
	binary.LittleEndian.PutUint32(b[hi-4:], crc32.Checksum(b[lo:hi-4], crc32.MakeTable(crc32.Castagnoli)))
}

// writtenSnapshot saves a Z=4, 64-byte-block controller of the scheme
// after every block has been written once.
func writtenSnapshot(t testing.TB, scheme config.Scheme, blocks, levels int) []byte {
	cfg := testCfg()
	cfg.Seed = 3
	c, err := New(scheme, cfg, Options{NumBlocks: uint64(blocks), Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for a := oram.Addr(0); int(a) < blocks; a++ {
		if _, err := c.Access(oram.OpWrite, a, blockVal(a, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTypedErrors: a short stream fails with
// io.ErrUnexpectedEOF, a damaged one with filestore.ErrCorrupted —
// distinguishable with errors.Is so recovery tooling can tell an
// interrupted copy from real damage. Every damaged field below carries
// a valid CRC, so the field's own check is what refuses it.
func TestSnapshotTypedErrors(t *testing.T) {
	cfg := testCfg()
	const blocks = 40
	snap := writtenSnapshot(t, config.SchemePSORAM, blocks, 4)
	if _, err := LoadDurable(bytes.NewReader(snap), cfg, Options{}); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}
	const (
		leavesAt   = metaBytes + 17 + 8
		firstChunk = 17 + 8*4*(32+64) + 4 // eight buckets of four slots
	)
	end := stateEnd(blocks)

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 2, metaBytes - 1, metaBytes, leavesAt + 5, end, end + 7, len(snap) - 1} {
			_, err := LoadDurable(bytes.NewReader(snap[:cut]), cfg, Options{})
			if !errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, filestore.ErrCorrupted) {
				t.Errorf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		// patch copies the snapshot, overwrites b at off and re-seals the
		// record [lo, hi) that holds it (none when lo == hi).
		patch := func(off int, b []byte, lo, hi int) []byte {
			cp := append([]byte(nil), snap...)
			copy(cp[off:], b)
			if lo < hi {
				recrc(cp, lo, hi)
			}
			return cp
		}
		cases := map[string]struct {
			data []byte
			why  string // the refusal names the damaged field
		}{
			"bad-magic":         {patch(0, []byte("ROSP"), 0, metaBytes), "bad meta record"},
			"bad-version":       {patch(4, []byte{0xFF}, 0, metaBytes), "unsupported format version"},
			"implausible-Z":     {patch(20, []byte{0xEE, 0xEE}, 0, metaBytes), "implausible geometry"},
			"huge-blockcount":   {patch(28, []byte{0xFF, 0xFF, 0xFF}, 0, metaBytes), "do not fit"},
			"leaf-out-of-range": {patch(leavesAt, []byte{0xFF, 0xFF, 0xFF, 0xFF}, metaBytes, end), "out of range"},
			"root-length":       {patch(leavesAt-4, []byte{32}, metaBytes, end), "root length 32"},
			"foreign-chunk":     {patch(end+5, []byte{7}, end, end+firstChunk), "foreign identity"},
			"bad-checksum":      {patch(end+100, []byte{0x5A}, 0, 0), "fails its checksum"},
		}
		for name, tc := range cases {
			_, err := LoadDurable(bytes.NewReader(tc.data), cfg, Options{})
			if !errors.Is(err, filestore.ErrCorrupted) || errors.Is(err, io.ErrUnexpectedEOF) ||
				!strings.Contains(err.Error(), tc.why) {
				t.Errorf("%s: err = %v, want filestore.ErrCorrupted naming %q", name, err, tc.why)
			}
		}
	})
	t.Run("tamper-is-corrupted", func(t *testing.T) {
		// A state chunk that carries the retired 32-byte root behind its
		// cursor, under a valid CRC, is damaged.
		tampered := withRetiredRoot(snap, blocks)
		if _, err := LoadDurable(bytes.NewReader(tampered), cfg, Options{}); !errors.Is(err, filestore.ErrCorrupted) {
			t.Errorf("retired root: err = %v, want filestore.ErrCorrupted", err)
		}
	})
}

// withRetiredRoot rewrites a stream's state chunk to carry a 32-byte
// root: root length 32, the root after it, and a recomputed CRC.
func withRetiredRoot(snap []byte, blocks int) []byte {
	const rootLenAt = metaBytes + 17 + 4
	end := stateEnd(blocks)
	out := append([]byte(nil), snap[:rootLenAt]...)
	out = binary.LittleEndian.AppendUint32(out, 32)
	out = append(out, make([]byte, 32)...)
	out = append(out, snap[rootLenAt+4:end]...)
	recrc(out, metaBytes, len(out))
	return append(out, snap[end:]...)
}

// TestSnapshotBitFlipsRefused flips one bit at every 97th byte of a
// PS-ORAM and of a Baseline snapshot: every record is under a CRC, so
// LoadDurable refuses each flipped stream rather than loading it and
// serving a wrong value.
func TestSnapshotBitFlipsRefused(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline} {
		t.Run(scheme.String(), func(t *testing.T) {
			snap := writtenSnapshot(t, scheme, 64, 5)
			flips, loaded := 0, 0
			for off := 0; off < len(snap); off += 97 {
				flipped := append([]byte(nil), snap...)
				flipped[off] ^= 1 << (off % 8)
				flips++
				if c, err := LoadDurable(bytes.NewReader(flipped), testCfg(), Options{Untimed: true}); err == nil {
					loaded++
					c.Close()
				}
			}
			if loaded != 0 {
				t.Fatalf("%d of %d one-bit flips loaded", loaded, flips)
			}
		})
	}
}

// TestSnapshotCrossFormat pins "one format" and "one recovery": a
// file-backed controller's SaveDurable stream loaded with LoadDurable,
// and that controller's closed directory reopened with New, read back
// the same values and save byte-identical streams, also after the same
// 50 writes on both: the two recovered controllers draw the same IVs,
// leaves and versions. Baseline and eADR-ORAM keep no current durable
// PosMap, so their reads after a recovery fail and they skip the writes.
func TestSnapshotCrossFormat(t *testing.T) {
	for _, scheme := range flatSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			c := newDurableCtl(t, scheme, dir)
			r := &lcg{s: uint64(31 + scheme)}
			for i := 0; i < 150; i++ {
				addr := oram.Addr(r.n(100))
				if _, err := c.Access(oram.OpWrite, addr, blockVal(addr, i, 64)); err != nil {
					t.Fatal(err)
				}
			}
			var stream bytes.Buffer
			if err := c.SaveDurable(&stream); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDurable(bytes.NewReader(stream.Bytes()), testCfg(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			reopened, err := New(scheme, testCfg(), Options{StoreDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			for a := oram.Addr(0); a < 100; a++ {
				got, errL := loaded.Peek(a)
				want, errR := reopened.Peek(a)
				if (errL == nil) != (errR == nil) || !bytes.Equal(got, want) {
					t.Fatalf("addr %d: stream %.12q (%v), directory %.12q (%v)", a, got, errL, want, errR)
				}
			}
			if keepsDurablePosMap(scheme) {
				w := &lcg{s: 77}
				for i := 0; i < 50; i++ {
					addr := oram.Addr(w.n(100))
					for _, c := range []*Controller{loaded, reopened} {
						if _, err := c.Access(oram.OpWrite, addr, blockVal(addr, 500+i, 64)); err != nil {
							t.Fatalf("write %d after recovery: %v", i, err)
						}
					}
				}
			}
			var a, b bytes.Buffer
			if err := loaded.SaveDurable(&a); err != nil {
				t.Fatal(err)
			}
			if err := reopened.SaveDurable(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("the stream's and the directory's controllers save different streams")
			}
		})
	}
}

// FuzzLoadDurable feeds LoadDurable hostile snapshots. Each input
// either fails to load with an error, or loads into a controller that
// answers Peek on every address (a value of one block, or an error: a
// Baseline snapshot may hold blocks its volatile PosMap lost) without a
// panic. The reader reads each record before it builds anything from
// it, so the heap it takes follows the bytes given, never a count in a
// record.
func FuzzLoadDurable(f *testing.F) {
	// Small seeds (two levels, Z=2, 16-byte blocks) keep each run and
	// the minimization of what it finds short.
	cfg := testCfg()
	cfg.Z, cfg.BlockBytes = 2, 16
	for _, scheme := range flatSchemes {
		c, err := New(scheme, cfg, Options{NumBlocks: 6, Levels: 2, Untimed: true})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			a := oram.Addr(i * 5 % 6)
			if _, err := c.Access(oram.OpWrite, a, blockVal(a, i, cfg.BlockBytes)); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := c.SaveDurable(&buf); err != nil {
			f.Fatal(err)
		}
		c.Close()
		f.Add(buf.Bytes())
		if scheme == config.SchemePSORAM {
			f.Add(withRetiredRoot(buf.Bytes(), 6))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := LoadDurable(bytes.NewReader(data), cfg, Options{Untimed: true})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<22+64*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		defer c.Close()
		for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
			if v, err := c.Peek(a); err == nil && len(v) != c.Cfg.BlockBytes {
				t.Fatalf("addr %d: Peek returned %d bytes, block size %d", a, len(v), c.Cfg.BlockBytes)
			}
		}
	})
}
