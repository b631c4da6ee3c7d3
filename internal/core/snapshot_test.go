package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
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
		[]byte("PSOR"),
		append([]byte("PSOR"), make([]byte, 20)...),
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
			strict := scheme == config.SchemeFullNVM || scheme == config.SchemeFullNVMSTT ||
				scheme == config.SchemeNaivePSORAM || scheme == config.SchemePSORAM
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

// TestSnapshotTypedErrors: a short stream is ErrSnapshotTruncated, a
// structurally damaged one is ErrSnapshotCorrupted — distinguishable
// with errors.Is so recovery tooling can tell an interrupted copy from
// real damage.
func TestSnapshotTypedErrors(t *testing.T) {
	cfg := testCfg()
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 40, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		a := oram.Addr(i % 40)
		if _, err := c.Access(oram.OpWrite, a, blockVal(a, i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveDurable(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	if _, err := LoadDurable(bytes.NewReader(snap), cfg, Options{}); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}

	const (
		hdrOff    = 4                // after magic
		posmapOff = hdrOff + 7*8     // after header
		slotsOff  = posmapOff + 40*4 // after 40 posmap entries
	)
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 2, hdrOff, hdrOff + 13, posmapOff + 5, slotsOff + 7, len(snap) - 1} {
			if _, err := LoadDurable(bytes.NewReader(snap[:cut]), cfg, Options{}); !errors.Is(err, ErrSnapshotTruncated) {
				t.Errorf("cut at %d: err = %v, want ErrSnapshotTruncated", cut, err)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		patch := func(off int, b []byte) []byte {
			cp := append([]byte(nil), snap...)
			copy(cp[off:], b)
			return cp
		}
		cases := map[string][]byte{
			"bad-magic":         patch(0, []byte("ROSP")),
			"bad-version":       patch(hdrOff, []byte{0xFF}),
			"implausible-Z":     patch(hdrOff+3*8, []byte{0xEE, 0xEE}),
			"huge-blockcount":   patch(hdrOff+5*8, []byte{0xFF, 0xFF, 0xFF}),
			"leaf-out-of-range": patch(posmapOff, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		}
		for name, data := range cases {
			if _, err := LoadDurable(bytes.NewReader(data), cfg, Options{}); !errors.Is(err, ErrSnapshotCorrupted) {
				t.Errorf("%s: err = %v, want ErrSnapshotCorrupted", name, err)
			}
		}
	})
	t.Run("tamper-is-corrupted", func(t *testing.T) {
		// The last four bytes are the reserved root length, always 0: a
		// snapshot that carries a root is damaged, not an integrity one.
		tampered := append([]byte(nil), snap...)
		tampered[len(tampered)-4] = 32
		tampered = append(tampered, make([]byte, 32)...)
		if _, err := LoadDurable(bytes.NewReader(tampered), cfg, Options{}); !errors.Is(err, ErrSnapshotCorrupted) {
			t.Errorf("non-zero root length: err = %v, want ErrSnapshotCorrupted", err)
		}
	})

}

// FuzzLoadDurable feeds LoadDurable hostile snapshots. Each input
// either fails to load with an error, or loads into a controller that
// answers Peek on every address (a value of one block, or an error: a
// Baseline snapshot may hold blocks its volatile PosMap lost) without a
// panic. The loader reads the body before it builds anything, so the
// heap it takes follows the bytes given, never a count in the header.
func FuzzLoadDurable(f *testing.F) {
	// Small seeds (two levels, Z=2, 16-byte blocks) keep each run and
	// the minimization of what it finds short.
	cfg := testCfg()
	cfg.Z, cfg.BlockBytes = 2, 16
	for _, scheme := range []config.Scheme{config.SchemeBaseline, config.SchemePSORAM} {
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
			// The retired Merkle root: a non-zero root length and a root.
			root := append([]byte(nil), buf.Bytes()...)
			root[len(root)-4] = 32
			f.Add(append(root, make([]byte, 32)...))
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
