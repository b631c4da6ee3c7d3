package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// testCfg returns a small-but-real configuration for functional tests.
func testCfg() config.Config {
	cfg := config.Default()
	cfg.StashEntries = 120
	cfg.TempPosMapSize = 16
	cfg.WriteBufferEntries = 16
	cfg.OnChipPosMapBytes = 4 * 64 * 8 // small on-chip budget -> real recursion
	return cfg
}

func newCtl(t *testing.T, scheme config.Scheme) *Controller {
	t.Helper()
	c, err := New(scheme, testCfg(), Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func blockVal(addr oram.Addr, version, n int) []byte {
	b := make([]byte, n)
	copy(b, []byte(fmt.Sprintf("a%d.v%d", addr, version)))
	return b
}

// lcg is a tiny deterministic random source for tests.
type lcg struct{ s uint64 }

func (l *lcg) n(n int) int {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return int((l.s >> 33) % uint64(n))
}

var functionalSchemes = []config.Scheme{
	config.SchemeBaseline,
	config.SchemeFullNVM,
	config.SchemeFullNVMSTT,
	config.SchemeNaivePSORAM,
	config.SchemePSORAM,
	config.SchemeRcrBaseline,
	config.SchemeRcrPSORAM,
	config.SchemeEADRORAM,
}

// TestStashRuleIsOramNew: the controller passes the configured stash to
// oram.New unchanged, so oram.New's rule (the stash must exceed one path
// of the built tree) is the only one. A stash no larger than the path is
// that error, not a silently enlarged stash; one entry more is kept as
// configured.
func TestStashRuleIsOramNew(t *testing.T) {
	const levels = 5
	cfg := testCfg()
	path := oram.NewTree(levels, cfg.Z).PathBlocks()
	cfg.StashEntries = path
	_, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 40, Levels: levels})
	want := fmt.Sprintf("oram: stash (%d) must exceed one path (%d)", path, path)
	if err == nil || err.Error() != want {
		t.Fatalf("stash of one path: err = %v, want %q", err, want)
	}
	cfg.StashEntries = path + 1
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 40, Levels: levels})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.ORAM.Stash.Capacity(); got != path+1 {
		t.Fatalf("stash capacity %d, want the configured %d", got, path+1)
	}
}

func TestReadAfterWriteAllSchemes(t *testing.T) {
	for _, s := range functionalSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := newCtl(t, s)
			want := blockVal(5, 1, 64)
			if _, err := c.Access(oram.OpWrite, 5, want); err != nil {
				t.Fatal(err)
			}
			got, err := c.Access(oram.OpRead, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Value, want) {
				t.Fatalf("read %q, want %q", got.Value, want)
			}
		})
	}
}

func TestLongRunPreservesAllValuesAllSchemes(t *testing.T) {
	for _, s := range functionalSchemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := newCtl(t, s)
			ref := make(map[oram.Addr][]byte)
			r := &lcg{s: 42}
			n := 800
			if s.Recursive() {
				n = 300 // chains make each access heavier
			}
			for i := 0; i < n; i++ {
				addr := oram.Addr(r.n(100))
				if r.n(2) == 0 {
					v := blockVal(addr, i, 64)
					if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					ref[addr] = v
				} else {
					res, err := c.Access(oram.OpRead, addr, nil)
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					want := ref[addr]
					if want == nil {
						want = make([]byte, 64)
					}
					if !bytes.Equal(res.Value, want) {
						t.Fatalf("access %d: addr %d = %q want %q", i, addr, res.Value, want)
					}
				}
			}
			// Final sweep through Peek.
			for addr, want := range ref {
				got, err := c.Peek(addr)
				if err != nil {
					t.Fatalf("peek %d: %v", addr, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("peek %d = %q want %q", addr, got, want)
				}
			}
		})
	}
}

func TestTimeAdvances(t *testing.T) {
	for _, s := range functionalSchemes {
		c := newCtl(t, s)
		res, err := c.Access(oram.OpRead, 0, nil)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.End <= res.Start {
			t.Errorf("%v: access took no time (start=%d end=%d)", s, res.Start, res.End)
		}
		if c.Now() < res.End {
			t.Errorf("%v: controller time behind access end", s)
		}
	}
}

func TestFullNVMSlowerThanBaseline(t *testing.T) {
	elapsed := func(s config.Scheme) uint64 {
		c := newCtl(t, s)
		for i := 0; i < 50; i++ {
			if _, err := c.Access(oram.OpRead, oram.Addr(i%100), nil); err != nil {
				t.Fatal(err)
			}
		}
		return uint64(c.Now())
	}
	base := elapsed(config.SchemeBaseline)
	full := elapsed(config.SchemeFullNVM)
	stt := elapsed(config.SchemeFullNVMSTT)
	if full <= base {
		t.Errorf("FullNVM (%d) should be slower than Baseline (%d)", full, base)
	}
	if stt <= base || stt >= full {
		t.Errorf("FullNVM(STT) (%d) should sit between Baseline (%d) and FullNVM (%d)", stt, base, full)
	}
}

func TestNaiveSlowerThanPSORAM(t *testing.T) {
	elapsed := func(s config.Scheme) uint64 {
		c := newCtl(t, s)
		for i := 0; i < 50; i++ {
			if _, err := c.Access(oram.OpRead, oram.Addr(i%100), nil); err != nil {
				t.Fatal(err)
			}
		}
		return uint64(c.Now())
	}
	naive := elapsed(config.SchemeNaivePSORAM)
	ps := elapsed(config.SchemePSORAM)
	base := elapsed(config.SchemeBaseline)
	if ps <= base {
		t.Errorf("PS-ORAM (%d) should cost a little over Baseline (%d)", ps, base)
	}
	if naive <= ps {
		t.Errorf("Naive-PS-ORAM (%d) should be slower than PS-ORAM (%d)", naive, ps)
	}
}

func TestPSORAMDirtyEntriesFewerThanNaive(t *testing.T) {
	run := func(s config.Scheme) int64 {
		c := newCtl(t, s)
		for i := 0; i < 100; i++ {
			if _, err := c.Access(oram.OpRead, oram.Addr(i%100), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.Mem.Counters().Get("wpq.posmap.entries")
	}
	ps := run(config.SchemePSORAM)
	naive := run(config.SchemeNaivePSORAM)
	if ps == 0 {
		t.Fatal("PS-ORAM persisted no posmap entries at all")
	}
	if naive < 10*ps {
		t.Errorf("Naive (%d entries) should dwarf PS-ORAM (%d): dirty tracking is the contribution", naive, ps)
	}
}

func TestPSORAMStashEmptyOfCleanBlocks(t *testing.T) {
	// Invariant behind the ordered eviction: between accesses, only
	// blocks with pending remaps may linger in the stash (path-origin
	// blocks always return to their path).
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 9}
	for i := 0; i < 400; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		for _, b := range c.ORAM.Stash.Live() {
			if !b.PendingRemap {
				t.Fatalf("access %d: clean block %d lingers in stash", i, b.Addr)
			}
		}
		if len(c.ORAM.Stash.Backups()) != 0 {
			t.Fatalf("access %d: backup lingered past its access", i)
		}
	}
}

func TestTempPosMapBounded(t *testing.T) {
	cfg := testCfg()
	cfg.TempPosMapSize = 2 // force frequent drains
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &lcg{s: 5}
	for i := 0; i < 300; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		if c.Temp.Len() > 2 {
			t.Fatalf("temporary posmap exceeded capacity: %d", c.Temp.Len())
		}
	}
}

func TestDrainOldestPendingMergesEntry(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 5}
	// Run until a pending entry lingers, then drain it explicitly.
	for i := 0; i < 500 && c.Temp.Len() == 0; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Temp.Len() == 0 {
		t.Skip("no entry ever lingered; greedy eviction drained everything")
	}
	for c.Temp.Len() > 0 {
		before := c.Temp.Len()
		if err := c.drainOldestPending(); err != nil {
			t.Fatal(err)
		}
		if c.Temp.Len() >= before {
			t.Fatalf("drain did not shrink the temp posmap (%d -> %d)", before, c.Temp.Len())
		}
	}
	if c.Counters().Get("psoram.temp_drains") == 0 {
		t.Error("drain counter not incremented")
	}
}

func TestTempEntriesMatchPendingStashBlocks(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 17}
	for i := 0; i < 200; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		pending := 0
		for _, b := range c.ORAM.Stash.Live() {
			if b.PendingRemap {
				pending++
				if _, ok := c.Temp.Lookup(b.Addr); !ok {
					t.Fatalf("stash block %d pending but absent from temp posmap", b.Addr)
				}
			}
		}
		if pending != c.Temp.Len() {
			t.Fatalf("temp posmap (%d entries) out of sync with pending stash blocks (%d)", c.Temp.Len(), pending)
		}
	}
}

func TestDurablePosMapLagsBehindWorkingView(t *testing.T) {
	// PS-ORAM: the durable posmap changes only via committed batches and
	// the working view equals durable + temp overlay.
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 3}
	for i := 0; i < 150; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		for a := oram.Addr(0); a < 100; a++ {
			want := c.ORAM.PosMap.Lookup(a)
			if l, ok := c.Temp.Lookup(a); ok {
				want = l
			}
			if got := c.currentLeaf(a); got != want {
				t.Fatalf("leaf oracle inconsistent for %d: %d vs %d", a, got, want)
			}
			// The on-chip map must equal the durable map for non-pending
			// addresses.
			if _, ok := c.Temp.Lookup(a); !ok {
				if c.ORAM.PosMap.Lookup(a) != c.DurablePosMap().Lookup(a) {
					t.Fatalf("on-chip map diverged from durable for non-pending addr %d", a)
				}
			}
		}
	}
}

func TestOrderedEvictionSmallWPQ(t *testing.T) {
	cfg := testCfg()
	cfg.DataWPQEntries = 4
	cfg.PosMapWPQEntries = 4
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.Addr][]byte)
	r := &lcg{s: 77}
	for i := 0; i < 300; i++ {
		addr := oram.Addr(r.n(100))
		if r.n(2) == 0 {
			v := blockVal(addr, i, 64)
			if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			ref[addr] = v
		} else {
			res, err := c.Access(oram.OpRead, addr, nil)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			want := ref[addr]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(res.Value, want) {
				t.Fatalf("access %d: addr %d = %q want %q", i, addr, res.Value, want)
			}
		}
	}
	if c.Counters().Get("psoram.ordered_batches") == 0 {
		t.Error("small WPQ run never used the ordered eviction")
	}
}

func TestRecursiveChainWorkReported(t *testing.T) {
	c := newCtl(t, config.SchemeRcrBaseline)
	res, err := c.Access(oram.OpRead, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rec.Levels) == 0 {
		t.Fatal("test config should produce a real recursion")
	}
	if res.ChainBlocks == 0 {
		t.Error("recursive access reported no chain work")
	}
}

func TestAccessAfterCrashWithoutRecoverRejected(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	c.CrashAt = func(p CrashPoint) bool { return p.Step == 4 }
	if _, err := c.Access(oram.OpRead, 0, nil); err != ErrCrashed {
		t.Fatalf("expected ErrCrashed, got %v", err)
	}
	c.CrashAt = nil
	if _, err := c.Access(oram.OpRead, 0, nil); err == nil {
		t.Fatal("access after crash without Recover should fail")
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Access(oram.OpRead, 0, nil); err != nil {
		t.Fatalf("access after Recover failed: %v", err)
	}
}

func TestRecoverWithoutCrashRejected(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	if err := c.Recover(); err == nil {
		t.Fatal("Recover without crash should error")
	}
}

func TestNewRequiresNumBlocks(t *testing.T) {
	if _, err := New(config.SchemePSORAM, testCfg(), Options{}); err == nil {
		t.Fatal("New should require NumBlocks")
	}
}

func TestOutOfRangeAndBadWrites(t *testing.T) {
	c := newCtl(t, config.SchemePSORAM)
	if _, err := c.Access(oram.OpRead, 100, nil); err == nil {
		t.Fatal("out-of-range access accepted")
	}
	if _, err := c.Access(oram.OpWrite, 0, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestRescueBackupsFire(t *testing.T) {
	// Long random runs must occasionally endanger a previous backup and
	// rescue it; the counter proves the machinery is active.
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 101}
	for i := 0; i < 2000; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters().Get("psoram.rescue_backups") == 0 {
		t.Skip("no backup was endangered in this run; machinery untestable at this seed")
	}
}

func TestFullNVMCase1b(t *testing.T) {
	// The paper's Case 1(b): FullNVM persists the PosMap update at step 2;
	// a crash during step 3 leaves the durable map pointing at a path the
	// block never reached. The checker must see exactly that corruption.
	c := newCtl(t, config.SchemeFullNVM)
	// Warm up so the target holds a distinctive value.
	want := blockVal(7, 1, 64)
	if _, err := c.Access(oram.OpWrite, 7, want); err != nil {
		t.Fatal(err)
	}
	c.CrashAt = func(p CrashPoint) bool { return p.Step == 3 && p.Sub == 0 }
	_, err := c.Access(oram.OpRead, 7, nil)
	if err != ErrCrashed {
		t.Fatalf("want crash, got %v", err)
	}
	c.CrashAt = nil
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	// The durable posmap was updated to the new leaf; the block is
	// neither there nor in the (persistent) stash in full.
	if _, err := c.Peek(7); err == nil {
		t.Skip("block happened to be in the NVM stash already; case not triggered at this seed")
	}
}

func TestBounceWritesCounted(t *testing.T) {
	cfg := testCfg()
	cfg.DataWPQEntries = 2
	cfg.PosMapWPQEntries = 2
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &lcg{s: 55}
	for i := 0; i < 500; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(r.n(100)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Counters().Get("psoram.ordered_batches") == 0 {
		t.Fatal("2-entry WPQs never used the ordered eviction")
	}
	// Cycle groups and bounce writes are workload-dependent; just check
	// the run stayed functional (above) and report what happened.
	t.Logf("ordered_batches=%d bounce_writes=%d",
		c.Counters().Get("psoram.ordered_batches"),
		c.Counters().Get("psoram.bounce_writes"))
}

func TestEADRSurvivesMidAccessCrash(t *testing.T) {
	c := newCtl(t, config.SchemeEADRORAM)
	want := blockVal(3, 1, 64)
	if _, err := c.Access(oram.OpWrite, 3, want); err != nil {
		t.Fatal(err)
	}
	c.CrashAt = func(p CrashPoint) bool { return p.Step == 3 && p.Sub == 1 }
	if _, err := c.Access(oram.OpRead, 3, nil); err != ErrCrashed {
		t.Fatalf("want crash, got %v", err)
	}
	c.CrashAt = nil
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Peek(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("eADR lost the value across a mid-access crash: %q", got)
	}
}

func TestIntegrityRoundTrip(t *testing.T) {
	cfg := testCfg()
	cfg.Integrity = true
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.Addr][]byte)
	r := &lcg{s: 61}
	for i := 0; i < 400; i++ {
		addr := oram.Addr(r.n(100))
		if r.n(2) == 0 {
			v := blockVal(addr, i, 64)
			if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			ref[addr] = v
		} else {
			res, err := c.Access(oram.OpRead, addr, nil)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			if want := ref[addr]; want != nil && !bytes.Equal(res.Value, want) {
				t.Fatalf("access %d: %q want %q", i, res.Value, want)
			}
		}
	}
	if c.Counters().Get("integrity.verified_paths") == 0 ||
		c.Counters().Get("integrity.root_updates") == 0 {
		t.Fatal("integrity machinery idle")
	}
}

func TestIntegrityDetectsTampering(t *testing.T) {
	cfg := testCfg()
	cfg.Integrity = true
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 100, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An attacker flips a bit in the root bucket's first slot.
	s := c.ORAM.Image.Slot(0, 0)
	s.SealedData = append([]byte(nil), s.SealedData...)
	s.SealedData[0] ^= 1
	c.ORAM.Image.PutSlot(0, 0, s)
	// Every access reads the root bucket: the next access must fail.
	if _, err := c.Access(oram.OpRead, 5, nil); err == nil {
		t.Fatal("tampered tree verified")
	}
}

func TestIntegrityCrashConsistent(t *testing.T) {
	// The hash tree and root ride in the WPQ batch: after any crash +
	// recovery the tree must still verify and values must match the
	// acknowledged writes, plus the in-flight one when the crash came
	// after its commit (step 6).
	cfg := testCfg()
	cfg.Integrity = true
	c, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 80, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[oram.Addr][]byte)
	for a := oram.Addr(0); a < 80; a++ {
		want[a] = make([]byte, 64)
	}
	r := &lcg{s: 71}
	for cycle := 0; cycle < 5; cycle++ {
		crashAt := uint64(c.Accesses()) + uint64(4+r.n(6))
		step := []int{2, 3, 4, 5, 6}[r.n(5)]
		c.CrashAt = func(p CrashPoint) bool { return p.Access >= crashAt && p.Step == step }
		for i := 0; i < 30; i++ {
			addr := oram.Addr(r.n(80))
			v := blockVal(addr, cycle*100+i, 64)
			_, err := c.Access(oram.OpWrite, addr, v)
			if err == ErrCrashed {
				if step == 6 {
					want[addr] = v
				}
				break
			}
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			want[addr] = v
		}
		c.CrashAt = nil
		if err := c.Recover(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for a := oram.Addr(0); a < 80; a++ {
			got, err := c.Peek(a)
			if err != nil {
				t.Fatalf("cycle %d: addr %d unreadable: %v", cycle, a, err)
			}
			if !bytes.Equal(got, want[a]) {
				t.Fatalf("cycle %d (step %d): addr %d mismatch", cycle, step, a)
			}
		}
		// The surviving tree must still verify on further accesses.
		if _, err := c.Access(oram.OpRead, 0, nil); err != nil {
			t.Fatalf("cycle %d: post-recovery access: %v", cycle, err)
		}
	}
}

func TestIntegrityRequiresPersistentScheme(t *testing.T) {
	cfg := testCfg()
	cfg.Integrity = true
	if _, err := New(config.SchemeBaseline, cfg, Options{NumBlocks: 100, Levels: 5}); err == nil {
		t.Fatal("integrity accepted on a non-persistent scheme")
	}
	cfg2 := testCfg()
	cfg2.Integrity = true
	cfg2.DataWPQEntries = 4
	if _, err := New(config.SchemePSORAM, cfg2, Options{NumBlocks: 100, Levels: 5}); err == nil {
		t.Fatal("integrity accepted with WPQs too small for an atomic path")
	}
}

func TestFullStateAuditAfterSoak(t *testing.T) {
	// A deeper invariant audit after a long PS-ORAM run: exactly one
	// live copy per address (stash or tree slot agreeing with the
	// working map), durable map equals working map for non-pending
	// addresses, and the tree holds no unreachable real garbage beyond
	// superseded stale copies.
	c := newCtl(t, config.SchemePSORAM)
	r := &lcg{s: 404}
	for i := 0; i < 1500; i++ {
		addr := oram.Addr(r.n(100))
		var err error
		if r.n(3) == 0 {
			_, err = c.Access(oram.OpWrite, addr, blockVal(addr, i, 64))
		} else {
			_, err = c.Access(oram.OpRead, addr, nil)
		}
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	// Leaf-matching tree copies per address: several may exist after a
	// leaf collision between a block and its backup; the highest seal
	// version is the live one and readers must pick it (Block.Ver).
	type copyInfo struct {
		n      int
		maxVer uint32
	}
	tree := make(map[oram.Addr]copyInfo)
	for bk := uint64(0); bk < c.ORAM.Tree.Buckets(); bk++ {
		blocks, err := c.ORAM.Image.ReadBucket(bk)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.Dummy() {
				continue
			}
			if c.currentLeaf(b.Addr) == b.Leaf && c.ORAM.Tree.OnPath(bk, b.Leaf) {
				ci := tree[b.Addr]
				ci.n++
				if b.Ver > ci.maxVer {
					ci.maxVer = b.Ver
				}
				tree[b.Addr] = ci
			}
		}
	}
	for a := oram.Addr(0); a < 100; a++ {
		inStash := c.ORAM.Stash.Get(a) != nil
		ci := tree[a]
		switch {
		case !inStash && ci.n == 0:
			t.Fatalf("addr %d has no live copy anywhere", a)
		case ci.n > 2:
			t.Fatalf("addr %d has %d matching tree copies (collision pile-up)", a, ci.n)
		}
		if _, pending := c.Temp.Lookup(a); !pending {
			if c.ORAM.PosMap.Lookup(a) != c.DurablePosMap().Lookup(a) {
				t.Fatalf("non-pending addr %d: working and durable maps diverge", a)
			}
		}
	}
}

func TestRcrPSFlushResidentCovered(t *testing.T) {
	// The recursive force-evict fallback should fire occasionally over a
	// long run; either way the run must stay consistent (the long-run
	// test already covers values — here we just require no stash
	// residue, the invariant the flush exists for).
	c := newCtl(t, config.SchemeRcrPSORAM)
	r := &lcg{s: 31}
	for i := 0; i < 250; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(r.n(100)), blockVal(0, i, 64)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if n := c.ORAM.Stash.Len(); n != 0 {
			t.Fatalf("access %d: Rcr-PS stash not empty (%d) — durable chain may dangle", i, n)
		}
		for li, lvl := range c.Rec.Levels {
			if n := lvl.Stash.Len(); n != 0 {
				t.Fatalf("access %d: posmap level %d stash not empty (%d)", i, li+1, n)
			}
		}
	}
}

// TestPosMapWalkKeepsNewerDuplicate stages two copies of one PosMap-tree
// block on its current path: the newer one and an older one (a lower
// seal version whose entry for the accessed address names a wrong
// leaf). Whichever the chain walk meets first, the access must resolve
// through the newer copy: on a PosMap tree the higher seal version wins
// (loadSlot).
func TestPosMapWalkKeepsNewerDuplicate(t *testing.T) {
	for _, olderFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("olderFirst=%v", olderFirst), func(t *testing.T) {
			c := newCtl(t, config.SchemeRcrPSORAM)
			if len(c.Rec.Levels) == 0 {
				t.Fatal("the test configuration has no recursive PosMap level")
			}
			ref := map[oram.Addr][]byte{}
			r := &lcg{s: 3}
			for i := 0; i < 60; i++ {
				a := oram.Addr(r.n(100))
				v := blockVal(a, i, 64)
				if _, err := c.Access(oram.OpWrite, a, v); err != nil {
					t.Fatalf("access %d: %v", i, err)
				}
				ref[a] = v
			}

			const addr = oram.Addr(7)
			lvl := c.Rec.Levels[0]
			k := uint64(c.Rec.EntriesPerBlock)
			idx := oram.Addr(uint64(addr) / k)
			leaf := lvl.PosMap.Lookup(idx)
			// The block's copy and the path's dummy slots, in walk order.
			type slot struct {
				bucket uint64
				z      int
			}
			var free []slot
			var newer oram.Block
			found := false
			for _, bucket := range lvl.Tree.Path(leaf) {
				for z := 0; z < lvl.Tree.Z; z++ {
					b, err := oram.OpenSlot(lvl.Engine, lvl.Image.Slot(bucket, z))
					if err != nil {
						t.Fatal(err)
					}
					current := b.Addr == idx && b.Leaf == leaf
					if current {
						newer, found = b, true
					}
					if current || b.Dummy() {
						free = append(free, slot{bucket, z})
					}
				}
			}
			if !found || len(free) < 2 || newer.Ver == 0 {
				t.Fatalf("PosMap block %d: found=%v, %d free slots, version %d", idx, found, len(free), newer.Ver)
			}
			older := oram.Block{Addr: newer.Addr, Leaf: newer.Leaf, Ver: newer.Ver - 1,
				Data: append([]byte(nil), newer.Data...)}
			off := uint64(addr) % k
			oram.PackLeaf(older.Data, off, (oram.PackedLeaf(newer.Data, off)+1)%oram.Leaf(c.ORAM.Tree.Leaves()))

			seal := func(s slot, b oram.Block) {
				lvl.Image.PutSlot(s.bucket, s.z, oram.SealBlockInto(lvl.Engine, b, lvl.NextIV,
					make([]byte, oram.HeaderBytes), make([]byte, len(b.Data))))
			}
			for _, s := range free {
				lvl.Image.PutSlot(s.bucket, s.z, oram.DummySlotInto(lvl.Engine, len(newer.Data), lvl.NextIV,
					make([]byte, oram.HeaderBytes), make([]byte, len(newer.Data))))
			}
			first, second := older, newer
			if !olderFirst {
				first, second = newer, older
			}
			seal(free[0], first)
			seal(free[len(free)-1], second)

			res, err := c.Access(oram.OpRead, addr, nil)
			if err != nil {
				t.Fatalf("access through the duplicated PosMap block: %v", err)
			}
			want := ref[addr]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(res.Value, want) {
				t.Fatalf("block %d read %q, want %q", addr, res.Value, want)
			}
			for a, v := range ref {
				if got, err := c.Peek(a); err != nil || !bytes.Equal(got, v) {
					t.Fatalf("block %d reads %q (%v), want %q", a, got, err, v)
				}
			}
		})
	}
}

// TestSealVersionsExhaustedFailsClosed: seal versions are 32 bits in a
// header format the goldens pin, and freshness between two tree copies
// of a block is decided by comparing them, so the cursor must never
// wrap. One access's worth of draws short of wrapping, every access
// still succeeds with the right value; from there on Access returns
// oram.ErrSealVersionsExhausted before it touches anything.
func TestSealVersionsExhaustedFailsClosed(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline, config.SchemeRcrPSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			ctl := newCtl(t, scheme)
			bb := ctl.Cfg.BlockBytes
			ref := map[oram.Addr][]byte{}
			r := lcg{s: 5}
			write := func(i int) error {
				addr := oram.Addr(r.n(100))
				v := blockVal(addr, i, bb)
				res, err := ctl.Access(oram.OpWrite, addr, v)
				if err != nil {
					return err
				}
				if want, ok := ref[addr]; ok && !bytes.Equal(res.Value, want) {
					t.Fatalf("access %d: block %d read %q, want %q", i, addr, res.Value, want)
				}
				ref[addr] = v
				return nil
			}
			for i := 0; i < 200; i++ {
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}
			// The last cursor value from which an access is still admitted.
			last := uint32(math.MaxUint32 - 8*ctl.ORAM.Tree.PathBlocks())
			ctl.ORAM.SetVerSeq(last - 60)
			var err error
			admitted := 0
			for i := 200; err == nil; i++ {
				before := ctl.ORAM.VerSeq()
				if err = write(i); err == nil {
					admitted++
					if before > last || ctl.ORAM.VerSeq() <= before {
						t.Fatalf("access %d admitted at cursor %d and left it at %d", i, before, ctl.ORAM.VerSeq())
					}
				}
			}
			if !errors.Is(err, oram.ErrSealVersionsExhausted) {
				t.Fatalf("after %d accesses near the end of the version space: %v", admitted, err)
			}
			if admitted == 0 || ctl.ORAM.VerSeq() <= last {
				t.Fatalf("refused at cursor %d after %d accesses; accesses are admitted up to %d", ctl.ORAM.VerSeq(), admitted, last)
			}
			// Refused means untouched: same cursor, same access count, same
			// stash, and every block still reads its last written value.
			cursor, accesses, stash := ctl.ORAM.VerSeq(), ctl.Accesses(), ctl.ORAM.Stash.Len()
			if _, err := ctl.Access(oram.OpRead, 3, nil); !errors.Is(err, oram.ErrSealVersionsExhausted) {
				t.Fatalf("second refused access: %v", err)
			}
			if ctl.ORAM.VerSeq() != cursor || ctl.Accesses() != accesses || ctl.ORAM.Stash.Len() != stash {
				t.Fatal("a refused access changed the controller")
			}
			for addr, want := range ref {
				if got, err := ctl.Peek(addr); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("block %d reads %q (%v) after the refusal, want %q", addr, got, err, want)
				}
			}
		})
	}
	// A recursive PosMap tree draws from its own cursor; the access is
	// refused before the chain walk touches any level.
	ctl := newCtl(t, config.SchemeRcrPSORAM)
	if len(ctl.Rec.Levels) == 0 {
		t.Fatal("the test configuration has no recursive PosMap level")
	}
	lvl := ctl.Rec.Levels[len(ctl.Rec.Levels)-1]
	lvl.SetVerSeq(math.MaxUint32 - 5)
	if _, err := ctl.Access(oram.OpRead, 1, nil); !errors.Is(err, oram.ErrSealVersionsExhausted) {
		t.Fatalf("access with an exhausted PosMap tree: %v", err)
	}
	if lvl.VerSeq() != math.MaxUint32-5 || ctl.Accesses() != 0 {
		t.Fatal("the refused access ran part of the chain walk")
	}
}
