package oram_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/rng"
)

// The protocol tests of the package's data structures run them on the
// one access engine, internal/core: the baseline Path ORAM is
// core's Baseline scheme, the recursive PosMap is Rcr-Baseline's chain.

// engine builds scheme over 100 blocks of 64 bytes in an L=5, Z=4 tree;
// with recursive true, over 256 blocks in an L=7 tree whose PosMap is
// two PosMap trees deep.
func engine(t *testing.T, scheme config.Scheme, seed uint64, recursive bool) *core.Controller {
	t.Helper()
	cfg := config.Default()
	cfg.Seed = seed
	cfg.StashEntries = 120
	opts := core.Options{NumBlocks: 100, Levels: 5}
	if recursive {
		cfg.OnChipPosMapBytes = 4 * 64 * 8
		opts = core.Options{NumBlocks: 256, Levels: 7}
	}
	c, err := core.New(scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recursive && len(c.Rec.Levels) != 2 {
		t.Fatalf("%d PosMap trees, want 2", len(c.Rec.Levels))
	}
	return c
}

func baseline(t *testing.T, seed uint64) *core.Controller {
	return engine(t, config.SchemeBaseline, seed, false)
}

func val(addr oram.Addr, version int, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprintf("a%d.v%d", addr, version))
	return b
}

func TestReadAfterWrite(t *testing.T) {
	c := baseline(t, 2)
	want := val(5, 1, 64)
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
}

func TestWriteReturnsPreviousValue(t *testing.T) {
	c := baseline(t, 3)
	v1 := val(7, 1, 64)
	v2 := val(7, 2, 64)
	if _, err := c.Access(oram.OpWrite, 7, v1); err != nil {
		t.Fatal(err)
	}
	prev, err := c.Access(oram.OpWrite, 7, v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev.Value, v1) {
		t.Fatalf("write returned %q, want previous %q", prev.Value, v1)
	}
}

func TestManyAccessesPreserveAllBlocks(t *testing.T) {
	c := baseline(t, 4)
	n := c.ORAM.NumBlocks()
	ref := make(map[oram.Addr][]byte)
	for a := oram.Addr(0); uint64(a) < n; a++ {
		ref[a] = make([]byte, 64)
	}
	r := rng.New(99)
	for i := 0; i < 2000; i++ {
		a := oram.Addr(r.Uint64n(n))
		if r.Uint64n(2) == 0 {
			v := val(a, i, 64)
			if _, err := c.Access(oram.OpWrite, a, v); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			ref[a] = v
		} else {
			got, err := c.Access(oram.OpRead, a, nil)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			if !bytes.Equal(got.Value, ref[a]) {
				t.Fatalf("access %d: addr %d read %q want %q", i, a, got.Value, ref[a])
			}
		}
	}
	// Full sweep at the end, without an access.
	for a, want := range ref {
		got, err := c.Peek(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final sweep: addr %d = %q want %q", a, got, want)
		}
	}
}

func TestStashStaysBounded(t *testing.T) {
	c := baseline(t, 5)
	r := rng.New(7)
	maxStash := 0
	for i := 0; i < 3000; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.Uint64n(c.ORAM.NumBlocks())), nil); err != nil {
			t.Fatal(err)
		}
		maxStash = max(maxStash, c.ORAM.Stash.Len())
	}
	if maxStash > 40 {
		t.Fatalf("stash peaked at %d; Path ORAM with 50%% utilization should stay small", maxStash)
	}
}

func TestRemapChangesLeafDistribution(t *testing.T) {
	// Accessing the same address repeatedly must touch different paths:
	// the remap after each access is what provides obliviousness.
	c := baseline(t, 6)
	seen := map[oram.Leaf]bool{}
	for i := 0; i < 64; i++ {
		res, err := c.Access(oram.OpRead, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.PathLeaf] = true
	}
	if len(seen) < 10 {
		t.Fatalf("64 accesses to one addr touched only %d distinct paths", len(seen))
	}
}

func TestPathLeafMatchesPriorMapping(t *testing.T) {
	// The path read must be the leaf the block was mapped to *before* the
	// access (the fresh leaf is only used from the next access on).
	c := baseline(t, 8)
	for i := 0; i < 50; i++ {
		a := oram.Addr(i % int(c.ORAM.NumBlocks()))
		before := c.ORAM.PosMap.Lookup(a)
		res, err := c.Access(oram.OpRead, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.PathLeaf != before {
			t.Fatalf("access read path %d, posmap said %d", res.PathLeaf, before)
		}
	}
}

func TestAccessOutOfRange(t *testing.T) {
	c := baseline(t, 9)
	if _, err := c.Access(oram.OpRead, oram.Addr(c.ORAM.NumBlocks()), nil); err == nil {
		t.Fatal("expected error for out-of-range address")
	}
}

// A wrong-size write is refused before the access touches anything: the
// controller goes on exactly as a twin that never saw it (same leaves,
// so neither the PosMap nor the RNG moved).
func TestWriteWrongSizeRejected(t *testing.T) {
	c, twin := baseline(t, 10), baseline(t, 10)
	if _, err := c.Access(oram.OpWrite, 0, []byte("short")); err == nil {
		t.Fatal("expected error for wrong-size write")
	}
	for a := oram.Addr(0); a < 20; a++ {
		got, err := c.Access(oram.OpWrite, a%5, val(a, 1, 64))
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Access(oram.OpWrite, a%5, val(a, 1, 64))
		if err != nil {
			t.Fatal(err)
		}
		if got.PathLeaf != want.PathLeaf || got.EvictedBlocks != want.EvictedBlocks ||
			got.Start != want.Start || got.End != want.End || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("access %d after the refused write: %+v, twin %+v", a, got, want)
		}
	}
}

func TestInvariantNoDuplicateLiveCopies(t *testing.T) {
	// After any run, each address appears at most once as a live copy:
	// either in the stash, or in the tree at its mapped leaf. (Stale tree
	// copies with mismatched leaves are allowed; they read as dummies.)
	c := baseline(t, 11)
	o := c.ORAM
	r := rng.New(13)
	for i := 0; i < 500; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.Uint64n(o.NumBlocks())), nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[oram.Addr]int)
	for _, b := range o.Stash.Live() {
		counts[b.Addr]++
	}
	for bk := uint64(0); bk < o.Tree.Buckets(); bk++ {
		blocks, err := o.Image.ReadBucket(bk)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.Dummy() {
				continue
			}
			if o.PosMap.Lookup(b.Addr) == b.Leaf && o.Tree.OnPath(bk, b.Leaf) {
				counts[b.Addr]++
			}
		}
	}
	for a := oram.Addr(0); uint64(a) < o.NumBlocks(); a++ {
		if counts[a] != 1 {
			t.Fatalf("addr %d has %d live copies", a, counts[a])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []oram.Leaf {
		c := baseline(t, 77)
		var leaves []oram.Leaf
		for i := 0; i < 100; i++ {
			res, err := c.Access(oram.OpRead, oram.Addr(i%50), nil)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, res.PathLeaf)
		}
		return leaves
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at access %d", i)
		}
	}
}

// Freshness between tree copies is decided by seal versions: an access
// is refused rather than run the tree's cursor into a wrap.
func TestSealVersionsExhausted(t *testing.T) {
	c := baseline(t, 3)
	last := uint32(math.MaxUint32 - oram.SealVersionEvictions*c.ORAM.Tree.PathBlocks())
	c.ORAM.SetVerSeq(last)
	if _, err := c.Access(oram.OpWrite, 1, val(1, 1, 64)); err != nil {
		t.Fatalf("access at the last admitted cursor value: %v", err)
	}
	cursor := c.ORAM.VerSeq()
	if cursor <= last {
		t.Fatal("the admitted access drew no version")
	}
	for _, op := range []oram.Op{oram.OpRead, oram.OpWrite} {
		if _, err := c.Access(op, 1, val(1, 2, 64)); !errors.Is(err, oram.ErrSealVersionsExhausted) {
			t.Fatalf("%v past the margin: %v", op, err)
		}
	}
	if c.ORAM.VerSeq() != cursor {
		t.Fatal("a refused access moved the cursor")
	}
	if got, err := c.Peek(1); err != nil || !bytes.Equal(got, val(1, 1, 64)) {
		t.Fatalf("block 1 reads %q (%v) after the refusals", got, err)
	}
}

// The chain walk returns the data address's current leaf and records the
// fresh one: after each access, PosMap tree 1 packs the data PosMap's
// new leaf for the address.
func TestTranslateReturnsCurrentLeafAndRemaps(t *testing.T) {
	c := engine(t, config.SchemeRcrBaseline, 21, true)
	k := uint64(c.Rec.EntriesPerBlock)
	for i := 0; i < 300; i++ {
		addr := oram.Addr(i % 256)
		want := c.ORAM.PosMap.Lookup(addr)
		res, err := c.Access(oram.OpRead, addr, nil)
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if res.PathLeaf != want {
			t.Fatalf("access %d: the chain gave leaf %d, the data PosMap said %d", i, res.PathLeaf, want)
		}
		packed, err := c.Rec.Levels[0].Peek(oram.Addr(uint64(addr) / k))
		if err != nil {
			t.Fatal(err)
		}
		if got, next := oram.PackedLeaf(packed, uint64(addr)%k), c.ORAM.PosMap.Lookup(addr); got != next {
			t.Fatalf("access %d: PosMap tree 1 packs leaf %d for addr %d, the data PosMap %d", i, got, addr, next)
		}
	}
}

// An access reports its chain work: every PosMap tree's path read and
// written once.
func TestTranslateTraceCountsChainWork(t *testing.T) {
	c := engine(t, config.SchemeRcrBaseline, 21, true)
	res, err := c.Access(oram.OpRead, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (c.Rec.Levels[0].Tree.PathBlocks() + c.Rec.Levels[1].Tree.PathBlocks())
	if res.ChainBlocks != want {
		t.Fatalf("chain blocks = %d, want %d", res.ChainBlocks, want)
	}
}

// When the whole PosMap fits on chip the recursion degenerates: Top is a
// flat map, and the engine's Top is the data PosMap itself.
func TestDegenerateRecursion(t *testing.T) {
	m, err := oram.NewRecursiveMap(oram.RecursiveParams{
		DataBlocks:      10,
		DataTree:        oram.NewTree(5, 4),
		BlockBytes:      64,
		EntriesPerBlock: 4,
		OnChipEntries:   100, // everything fits on chip
		StashEntries:    120,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Levels) != 0 || m.Top.Len() != 10 {
		t.Fatalf("expected a degenerate hierarchy over 10 entries, got %d levels, %d entries", len(m.Levels), m.Top.Len())
	}
	c := engine(t, config.SchemeRcrBaseline, 5, false) // default on-chip budget
	if len(c.Rec.Levels) != 0 || c.Rec.Top != c.ORAM.PosMap {
		t.Fatal("a 100-block Rcr-Baseline did not degenerate onto the data PosMap")
	}
	old := c.ORAM.PosMap.Lookup(3)
	res, err := c.Access(oram.OpRead, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathLeaf != old || res.ChainBlocks != 0 {
		t.Fatalf("degenerate access read leaf %d (want %d) with %d chain blocks", res.PathLeaf, old, res.ChainBlocks)
	}
}

func TestRecursiveEndToEndDataAccess(t *testing.T) {
	// Drive a full recursive ORAM: values must round-trip across hundreds
	// of accesses through the chain.
	c := engine(t, config.SchemeRcrBaseline, 21, true)
	ref := make(map[oram.Addr][]byte)
	r := rng.New(31)
	for i := 0; i < 600; i++ {
		addr := oram.Addr(r.Uint64n(256))
		op, data := oram.OpRead, []byte(nil)
		if r.Uint64n(2) == 0 {
			op, data = oram.OpWrite, val(addr, i, 64)
		}
		res, err := c.Access(op, addr, data)
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if want, ok := ref[addr]; ok && !bytes.Equal(res.Value, want) {
			t.Fatalf("access %d: addr %d = %q want %q", i, addr, res.Value, want)
		}
		if data != nil {
			ref[addr] = data
		}
	}
}
