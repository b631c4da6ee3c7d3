package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// flatSchemes is the durable-backend coverage set (StorageSupported).
var flatSchemes = []config.Scheme{
	config.SchemeBaseline,
	config.SchemeFullNVM,
	config.SchemeFullNVMSTT,
	config.SchemeNaivePSORAM,
	config.SchemePSORAM,
	config.SchemeEADRORAM,
}

func newDurableCtl(t *testing.T, scheme config.Scheme, dir string) *Controller {
	t.Helper()
	c, created, err := NewDurable(scheme, testCfg(), Options{NumBlocks: 100, Levels: 5}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatalf("fresh dir %s reported as recovered", dir)
	}
	return c
}

// TestDurableRoundTrip is the clean-shutdown cycle: create a
// file-backed store, run traffic, Close, reattach with NewDurable, and
// check what each scheme's durable design actually promises. The
// persistent family (PS-ORAM variants, FullNVM) keeps its position map
// in the persistence domain, so every address must read back its last
// written value. Baseline keeps the map in volatile DRAM and eADR's
// flush-on-power-fail hook never fires under a plain close of durable
// state, so for those a remapped block may be unreachable or stale —
// the very data loss the paper's design eliminates; the weak check
// only rejects values that were NEVER written (corruption).
func TestDurableRoundTrip(t *testing.T) {
	strict := map[config.Scheme]bool{
		config.SchemeFullNVM:     true,
		config.SchemeFullNVMSTT:  true,
		config.SchemeNaivePSORAM: true,
		config.SchemePSORAM:      true,
	}
	for _, scheme := range flatSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			c := newDurableCtl(t, scheme, dir)
			ref := make(map[oram.Addr][]byte)
			hist := make(map[oram.Addr][][]byte)
			r := &lcg{s: 4242}
			for i := 0; i < 200; i++ {
				addr := oram.Addr(r.n(100))
				v := blockVal(addr, i, 64)
				if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
					t.Fatal(err)
				}
				ref[addr] = v
				hist[addr] = append(hist[addr], v)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			loaded, created, err := NewDurable(scheme, testCfg(), Options{NumBlocks: 100, Levels: 5}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if created {
				t.Fatal("existing store reported as created")
			}
			zero := make([]byte, 64)
			for a, want := range ref {
				got, err := loaded.Peek(a)
				if strict[scheme] {
					if err != nil {
						t.Fatalf("addr %d unreadable after reopen: %v", a, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("addr %d = %.12q, want %.12q", a, got, want)
					}
					continue
				}
				if err != nil {
					continue // lossy scheme: unreachable is allowed
				}
				known := bytes.Equal(got, zero)
				for _, v := range hist[a] {
					known = known || bytes.Equal(got, v)
				}
				if !known {
					t.Fatalf("addr %d = %.12q: not any written version (corruption, not loss)", a, got)
				}
			}
			// The persistent schemes must come back fully operational;
			// on the lossy ones a lost block stays lost (the stale map
			// means accesses to it legitimately fail — same as the
			// in-memory crash model).
			if strict[scheme] {
				for i := 0; i < 50; i++ {
					addr := oram.Addr(r.n(100))
					if _, err := loaded.Access(oram.OpWrite, addr, blockVal(addr, 1000+i, 64)); err != nil {
						t.Fatalf("post-reopen access %d: %v", i, err)
					}
				}
			}
			if err := loaded.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStorageBackendEquivalence is the differential check behind the
// "backends are interchangeable" claim: the same seed and op sequence
// driven through the in-memory backend and the file backend must
// produce identical access results AND a byte-identical sealed image —
// the storage layer sits below the crypto, so it must not perturb the
// RNG stream or the slot contents in any way.
func TestStorageBackendEquivalence(t *testing.T) {
	for _, scheme := range flatSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			mem, err := New(scheme, cfg, Options{NumBlocks: 100, Levels: 5})
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "store")
			file := newDurableCtl(t, scheme, dir)
			defer file.Close()

			r := &lcg{s: 777}
			for i := 0; i < 300; i++ {
				addr := oram.Addr(r.n(100))
				op, data := oram.OpRead, []byte(nil)
				if r.n(2) == 0 {
					op, data = oram.OpWrite, blockVal(addr, i, 64)
				}
				rm, errM := mem.Access(op, addr, data)
				rf, errF := file.Access(op, addr, data)
				if (errM == nil) != (errF == nil) {
					t.Fatalf("op %d: error divergence: mem=%v file=%v", i, errM, errF)
				}
				if errM != nil {
					continue
				}
				if !bytes.Equal(rm.Value, rf.Value) {
					t.Fatalf("op %d addr %d: result divergence: mem=%.12q file=%.12q", i, addr, rm.Value, rf.Value)
				}
			}
			if d := diffImages(mem, file); d != "" {
				t.Fatalf("sealed images diverge after identical histories: %s", d)
			}
			if mem.ORAM.VerSeq() != file.ORAM.VerSeq() {
				t.Fatalf("version cursors diverge: mem=%d file=%d", mem.ORAM.VerSeq(), file.ORAM.VerSeq())
			}
		})
	}
}

// diffImages compares two controllers' sealed images slot by slot and
// reports the first difference ("" = identical).
func diffImages(a, b *Controller) string {
	ta, tb := a.ORAM.Tree, b.ORAM.Tree
	if ta.Buckets() != tb.Buckets() {
		return fmt.Sprintf("bucket counts %d vs %d", ta.Buckets(), tb.Buckets())
	}
	for bk := uint64(0); bk < ta.Buckets(); bk++ {
		for z := 0; z < a.Cfg.Z; z++ {
			sa, sb := a.ORAM.Image.Slot(bk, z), b.ORAM.Image.Slot(bk, z)
			if sa.IV1 != sb.IV1 || sa.IV2 != sb.IV2 ||
				!bytes.Equal(sa.SealedHeader, sb.SealedHeader) ||
				!bytes.Equal(sa.SealedData, sb.SealedData) {
				return fmt.Sprintf("bucket %d slot %d", bk, z)
			}
		}
	}
	return ""
}

// TestDurableGeometryMismatchRejected: reattaching with the wrong
// scheme or size must fail loudly instead of serving another store's
// blocks.
func TestDurableGeometryMismatchRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	c := newDurableCtl(t, config.SchemePSORAM, dir)
	if _, err := c.Access(oram.OpWrite, 3, blockVal(3, 0, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewDurable(config.SchemeBaseline, testCfg(), Options{NumBlocks: 100, Levels: 5}, dir); err == nil {
		t.Fatal("scheme mismatch accepted")
	}
	if _, _, err := NewDurable(config.SchemePSORAM, testCfg(), Options{NumBlocks: 200, Levels: 5}, dir); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, _, err := NewDurable(config.SchemePSORAM, testCfg(), Options{NumBlocks: 100, Levels: 5}, dir); err != nil {
		t.Fatalf("matching reopen failed: %v", err)
	}
}

// TestDurableRejectsUnsupportedSchemes: the backend covers the flat
// family only; recursive and NonORAM controllers must be refused up front.
func TestDurableRejectsUnsupportedSchemes(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemeRcrPSORAM, config.SchemeNonORAM} {
		dir := filepath.Join(t.TempDir(), "store")
		if _, _, err := NewDurable(scheme, testCfg(), Options{NumBlocks: 100, Levels: 5}, dir); err == nil {
			t.Fatalf("scheme %v accepted by NewDurable", scheme)
		}
	}
}

// TestDurableIntegrityRootSurvives: with cfg.Integrity set the trusted
// root rides the persistence domain; a clean reopen must verify, and a
// flipped image byte must be caught by the root comparison.
func TestDurableIntegrityRootSurvives(t *testing.T) {
	cfg := testCfg()
	cfg.Integrity = true
	dir := filepath.Join(t.TempDir(), "store")
	c, created, err := NewDurable(config.SchemePSORAM, cfg, Options{NumBlocks: 80, Levels: 5}, dir)
	if err != nil || !created {
		t.Fatalf("create: %v created=%v", err, created)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(i%80), blockVal(oram.Addr(i%80), i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := NewDurable(config.SchemePSORAM, cfg, Options{NumBlocks: 80, Levels: 5}, dir)
	if err != nil {
		t.Fatalf("clean reopen with integrity failed: %v", err)
	}
	// Tamper with one sealed slot behind the controller's back and
	// persist without updating the root: reopen must reject.
	st := loaded.Storage().(*filestore.Store)
	s := st.Slot(1, 0)
	tampered := append([]byte(nil), s.SealedData...)
	if len(tampered) == 0 {
		t.Fatal("slot (1,0) has no sealed data")
	}
	tampered[0] ^= 0x40
	st.SetSlot(1, 0, oram.Slot{IV1: s.IV1, IV2: s.IV2, SealedHeader: s.SealedHeader, SealedData: tampered})
	if err := st.Persist(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := NewDurable(config.SchemePSORAM, cfg, Options{NumBlocks: 80, Levels: 5}, dir); err == nil {
		t.Fatal("tampered image passed the trusted-root check")
	}
}
