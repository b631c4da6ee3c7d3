package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// crashedNVM is what a crashed controller's NVM model holds, as the file
// store's records' source: the rolled-back image, the durable PosMap and
// the seal-version cursor.
type crashedNVM struct{ c *Controller }

func (v crashedNVM) Slot(bucket uint64, z int) oram.Slot { return v.c.ORAM.Image.Slot(bucket, z) }
func (v crashedNVM) Leaf(a oram.Addr) oram.Leaf          { return v.c.DurablePosMap().Lookup(a) }
func (v crashedNVM) VerSeq() uint32                      { return v.c.ORAM.VerSeq() }

// readAll reads every address of c: its value, or "unreadable" for an
// address that Peek cannot reach.
func readAll(c *Controller) []string {
	out := make([]string, c.ORAM.NumBlocks())
	for a := range out {
		v, err := c.Peek(oram.Addr(a))
		if err != nil {
			out[a] = "unreadable"
			continue
		}
		out[a] = string(v)
	}
	return out
}

// TestPowerFailIsReopen: an injected crash recovers to what a reopen of
// the NVM model it leaves recovers to. Each flat scheme runs 64 blocks at
// L=5, untimed, and crashes at every third point its accesses 0-59 offer,
// each point on a fresh controller. Every crash recovers twice: through
// Recover, and through LoadDurable of the rolled-back image, durable
// PosMap and version cursor, streamed. A point diverges when any address
// reads differently in the two. PS-ORAM and Naive-PS-ORAM never diverge.
// Where a scheme's persistence domain holds more than a store's Contents
// (DESIGN.md §4.1), the recoveries may differ: FullNVM's stash is NVM, so
// Recover keeps a block that sat in it at the crash, and the reopen, which
// has no stash, cannot reach it. The counts are pinned exactly.
func TestPowerFailIsReopen(t *testing.T) {
	const blocks, levels, accesses = 64, 5, 60
	pins := []struct {
		scheme   config.Scheme
		diverged int
	}{
		{config.SchemeBaseline, 0},
		{config.SchemeFullNVM, 69},
		{config.SchemeFullNVMSTT, 69},
		{config.SchemeNaivePSORAM, 0},
		{config.SchemePSORAM, 0},
		{config.SchemeEADRORAM, 0},
	}
	cfg := testCfg()
	opts := Options{NumBlocks: blocks, Levels: levels, Untimed: true}
	type op struct {
		write bool
		addr  oram.Addr
		data  []byte
	}
	r := &lcg{s: 30}
	ops := make([]op, accesses)
	for i := range ops {
		o := &ops[i]
		o.addr, o.write = oram.Addr(r.n(blocks)), r.n(2) == 0
		if o.write {
			o.data = blockVal(o.addr, i, cfg.BlockBytes)
		}
	}
	build := func(t *testing.T, s config.Scheme) *Controller {
		c, err := New(s, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// drive runs ops on c until one fails; it returns that op's error.
	drive := func(c *Controller) error {
		for _, o := range ops {
			var err error
			if o.write {
				_, err = c.Access(oram.OpWrite, o.addr, o.data)
			} else {
				_, err = c.Access(oram.OpRead, o.addr, nil)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, pin := range pins {
		s, pinned := pin.scheme, pin.diverged
		if !s.Policy().Storable() {
			t.Fatalf("%v is not a flat scheme", s)
		}
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			var points []CrashPoint
			probe := build(t, s)
			probe.CrashAt = func(p CrashPoint) bool {
				points = append(points, p)
				return false
			}
			if err := drive(probe); err != nil {
				t.Fatal(err)
			}
			probe.Close()
			diverged, total := 0, 0
			for i := 0; i < len(points); i += 3 {
				at := points[i]
				c := build(t, s)
				c.CrashAt = func(p CrashPoint) bool { return p == at }
				if err := drive(c); err != ErrCrashed {
					t.Fatalf("%v: want the injected crash, got %v", at, err)
				}
				c.CrashAt = nil
				var snap bytes.Buffer
				g := storeGeometry(s, c.Cfg, c.ORAM.Tree.L, c.ORAM.NumBlocks())
				if err := filestore.WriteStream(&snap, g, crashedNVM{c}); err != nil {
					t.Fatal(err)
				}
				if err := c.Recover(); err != nil {
					t.Fatalf("%v: %v", at, err)
				}
				loaded, err := LoadDurable(&snap, cfg, Options{Untimed: true})
				if err != nil {
					t.Fatalf("%v: %v", at, err)
				}
				a, b := readAll(c), readAll(loaded)
				total++
				for addr := range a {
					if a[addr] != b[addr] {
						if diverged == 0 {
							t.Logf("first at %v: addr %d reads %.10q recovered, %.10q reopened", at, addr, a[addr], b[addr])
						}
						diverged++
						break
					}
				}
				c.Close()
				loaded.Close()
			}
			t.Logf("%v: %d of %d points diverge", s, diverged, total)
			if diverged != pinned {
				t.Errorf("%v: %d of %d points diverge, pinned %d", s, diverged, total, pinned)
			}
		})
	}
}

// TestPeekRefusesCrashedController: between a power failure and Recover
// the controller holds nothing a running system could read (its on-chip
// state is gone), so Peek refuses, as Access and SaveDurable do; after
// Recover it reads again.
func TestPeekRefusesCrashedController(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	defer c.Close()
	if _, err := c.Access(oram.OpWrite, 3, blockVal(3, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Peek(3); err == nil {
		t.Fatalf("Peek on a crashed controller read %.12q", v)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Peek(3); err != nil || !bytes.Equal(v, blockVal(3, 1, 64)) {
		t.Fatalf("Peek after Recover: %.12q, %v", v, err)
	}
}

// TestCrashDrawsNoIVTwice: a crash and its recovery leave the IV cursor
// and the leaf stream where the crash found them. One PS-ORAM controller
// crashes mid-access and recovers five times; after each recovery its
// next IV is above every IV drawn before the crash, and its next leaves
// are those a twin that never crashed draws at the same point of the
// stream.
func TestCrashDrawsNoIVTwice(t *testing.T) {
	c, twin := newCtl(t, config.SchemePSORAM), newCtl(t, config.SchemePSORAM)
	defer c.Close()
	defer twin.Close()
	r := &lcg{s: 5}
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 20; i++ {
			addr := oram.Addr(r.n(100))
			data := blockVal(addr, cycle*20+i, 64)
			for _, x := range []*Controller{c, twin} {
				if _, err := x.Access(oram.OpWrite, addr, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The crashing access draws its leaf, then dies at step 4; the twin
		// draws the same leaf by hand.
		c.CrashAt = func(p CrashPoint) bool { return p.Step == 4 }
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != ErrCrashed {
			t.Fatalf("cycle %d: want the injected crash, got %v", cycle, err)
		}
		c.CrashAt = nil
		twin.ORAM.RandomLeaf()
		last := c.ORAM.DrawIVs(0)
		if err := c.Recover(); err != nil {
			t.Fatal(err)
		}
		if next := c.ORAM.NextIV(); next <= last {
			t.Fatalf("cycle %d: the first IV after recovery is %d, the cursor before the crash %d", cycle, next, last)
		}
		for k := 0; k < 8; k++ {
			if got, want := c.ORAM.RandomLeaf(), twin.ORAM.RandomLeaf(); got != want {
				t.Fatalf("cycle %d: leaf draw %d after recovery is %d, the uncrashed stream's %d", cycle, k, got, want)
			}
		}
	}
}

// TestRecoveryFreesWhatItReplaces: a crash-and-recover loop maps no image
// region it does not free, in memory and over a file store alike, and
// Close leaves none behind.
func TestRecoveryFreesWhatItReplaces(t *testing.T) {
	for _, dir := range []string{"", "store"} {
		before := oram.LiveRegions()
		opts := Options{NumBlocks: 100, Levels: 5}
		if dir != "" {
			opts.StoreDir = filepath.Join(t.TempDir(), dir)
		}
		c, err := New(config.SchemePSORAM, testCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		open := oram.LiveRegions()
		for i := 0; i < 10; i++ {
			if _, err := c.Access(oram.OpWrite, oram.Addr(i), blockVal(oram.Addr(i), i, 64)); err != nil {
				t.Fatal(err)
			}
			if err := c.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if err := c.Recover(); err != nil {
				t.Fatal(err)
			}
			if grew := oram.LiveRegions() - open; grew > 0 {
				t.Fatalf("store %q: recovery %d left %d more image regions open", dir, i, grew)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if grew := oram.LiveRegions() - before; grew > 0 {
			t.Errorf("store %q: %d image regions open after Close", dir, grew)
		}
	}
}
