package oram

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// smallParams returns a compact but non-trivial functional ORAM.
func smallParams(seed uint64) Params {
	return Params{
		Levels:       5,
		Z:            4,
		BlockBytes:   64,
		StashEntries: 120,
		NumBlocks:    100, // 100/252 slots < 50% utilization
		Seed:         seed,
	}
}

func mustNew(t *testing.T, p Params) *Controller {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func val(addr Addr, version int, n int) []byte {
	b := make([]byte, n)
	copy(b, []byte(fmt.Sprintf("a%d.v%d", addr, version)))
	return b
}

func TestNewInitialState(t *testing.T) {
	c := mustNew(t, smallParams(1))
	// Every block must be reachable and zero.
	for a := Addr(0); uint64(a) < c.NumBlocks(); a++ {
		v, err := c.Peek(a)
		if err != nil {
			t.Fatalf("initial peek %d: %v", a, err)
		}
		if !bytes.Equal(v, make([]byte, 64)) {
			t.Fatalf("block %d not zero-initialized", a)
		}
	}
	// The image holds exactly NumBlocks real blocks.
	n, err := c.Image.CountReal(c.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != c.NumBlocks() {
		t.Fatalf("image holds %d real blocks, want %d", n, c.NumBlocks())
	}
}

func TestReadAfterWrite(t *testing.T) {
	c := mustNew(t, smallParams(2))
	want := val(5, 1, 64)
	if _, _, err := c.Access(OpWrite, 5, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Access(OpRead, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
}

func TestWriteReturnsPreviousValue(t *testing.T) {
	c := mustNew(t, smallParams(3))
	v1 := val(7, 1, 64)
	v2 := val(7, 2, 64)
	if _, _, err := c.Access(OpWrite, 7, v1); err != nil {
		t.Fatal(err)
	}
	prev, _, err := c.Access(OpWrite, 7, v2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, v1) {
		t.Fatalf("write returned %q, want previous %q", prev, v1)
	}
}

func TestManyAccessesPreserveAllBlocks(t *testing.T) {
	c := mustNew(t, smallParams(4))
	ref := make(map[Addr][]byte)
	for a := Addr(0); uint64(a) < c.NumBlocks(); a++ {
		ref[a] = make([]byte, 64)
	}
	r := newTestRand(99)
	for i := 0; i < 2000; i++ {
		a := Addr(r.Intn(int(c.NumBlocks())))
		if r.Intn(2) == 0 {
			v := val(a, i, 64)
			if _, _, err := c.Access(OpWrite, a, v); err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			ref[a] = v
		} else {
			got, _, err := c.Access(OpRead, a, nil)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			if !bytes.Equal(got, ref[a]) {
				t.Fatalf("access %d: addr %d read %q want %q", i, a, got, ref[a])
			}
		}
	}
	// Full sweep at the end.
	all, err := c.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for a, want := range ref {
		if !bytes.Equal(all[a], want) {
			t.Fatalf("final sweep: addr %d = %q want %q", a, all[a], want)
		}
	}
}

func TestStashStaysBounded(t *testing.T) {
	c := mustNew(t, smallParams(5))
	r := newTestRand(7)
	maxStash := 0
	for i := 0; i < 3000; i++ {
		a := Addr(r.Intn(int(c.NumBlocks())))
		_, tr, err := c.Access(OpRead, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.StashAfter > maxStash {
			maxStash = tr.StashAfter
		}
	}
	if maxStash > 40 {
		t.Fatalf("stash peaked at %d; Path ORAM with 50%% utilization should stay small", maxStash)
	}
}

func TestRemapChangesLeafDistribution(t *testing.T) {
	// Accessing the same address repeatedly must touch different paths:
	// the remap after each access is what provides obliviousness.
	c := mustNew(t, smallParams(6))
	seen := map[Leaf]bool{}
	for i := 0; i < 64; i++ {
		_, tr, err := c.Access(OpRead, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[tr.PathLeaf] = true
	}
	if len(seen) < 10 {
		t.Fatalf("64 accesses to one addr touched only %d distinct paths", len(seen))
	}
}

func TestPathLeafMatchesPriorMapping(t *testing.T) {
	// The path read must be the leaf the block was mapped to *before* the
	// access (the fresh leaf is only used from the next access on).
	c := mustNew(t, smallParams(8))
	for i := 0; i < 50; i++ {
		a := Addr(i % int(c.NumBlocks()))
		before := c.PosMap.Lookup(a)
		_, tr, err := c.Access(OpRead, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.PathLeaf != before {
			t.Fatalf("access read path %d, posmap said %d", tr.PathLeaf, before)
		}
	}
}

func TestAccessOutOfRange(t *testing.T) {
	c := mustNew(t, smallParams(9))
	if _, _, err := c.Access(OpRead, Addr(c.NumBlocks()), nil); err == nil {
		t.Fatal("expected error for out-of-range address")
	}
}

// A wrong-size write is refused before the access touches anything: the
// controller goes on exactly as a twin that never saw it (same leaves,
// so neither the PosMap nor the RNG moved).
func TestWriteWrongSizeRejected(t *testing.T) {
	c, twin := mustNew(t, smallParams(10)), mustNew(t, smallParams(10))
	if _, _, err := c.Access(OpWrite, 0, []byte("short")); err == nil {
		t.Fatal("expected error for wrong-size write")
	}
	for a := Addr(0); a < 20; a++ {
		_, got, err := c.Access(OpWrite, a%5, val(a, 1, 64))
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := twin.Access(OpWrite, a%5, val(a, 1, 64))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("access %d after the refused write: trace %+v, twin %+v", a, got, want)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 0},
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 10000},
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 120, NumBlocks: 245}, // >95% util
		{Levels: 5, Z: 4, BlockBytes: 64, StashEntries: 10, NumBlocks: 100},  // stash < path
		{Levels: 5, Z: 4, BlockBytes: 0, StashEntries: 120, NumBlocks: 100},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be rejected: %+v", i, p)
		}
	}
}

func TestInvariantNoDuplicateLiveCopies(t *testing.T) {
	// After any run, each address appears at most once as a live copy:
	// either in the stash, or in the tree at its mapped leaf. (Stale tree
	// copies with mismatched leaves are allowed; they read as dummies.)
	c := mustNew(t, smallParams(11))
	r := newTestRand(13)
	for i := 0; i < 500; i++ {
		a := Addr(r.Intn(int(c.NumBlocks())))
		if _, _, err := c.Access(OpRead, a, nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[Addr]int)
	for _, b := range c.Stash.Live() {
		counts[b.Addr]++
	}
	for bk := uint64(0); bk < c.Tree.Buckets(); bk++ {
		blocks, err := c.Image.ReadBucket(c.Engine, bk)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if b.Dummy() {
				continue
			}
			if c.PosMap.Lookup(b.Addr) == b.Leaf && c.Tree.OnPath(bk, b.Leaf) {
				counts[b.Addr]++
			}
		}
	}
	for a := Addr(0); uint64(a) < c.NumBlocks(); a++ {
		if counts[a] != 1 {
			t.Fatalf("addr %d has %d live copies", a, counts[a])
		}
	}
}

func TestEvictionPlanRespectsPathConstraint(t *testing.T) {
	// Property: every block the plan places at level k of path l must
	// have IntersectLevel(l, leaf) >= k.
	c := mustNew(t, smallParams(12))
	f := func(leafSeed uint32) bool {
		l := Leaf(uint64(leafSeed) % c.Tree.Leaves())
		if _, err := c.LoadPathWith(l, func(a Addr) Leaf { return c.PosMap.Lookup(a) }); err != nil {
			return false
		}
		plan, _ := c.PlanEviction(l, c.DefaultEvictionOrder(l))
		for k := range plan {
			for _, b := range plan[k] {
				if b == nil {
					continue
				}
				if c.Tree.IntersectLevel(l, b.Leaf) < k {
					return false
				}
			}
		}
		// Write it back to keep state sane for the next iteration.
		c.ApplyEviction(l, plan, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []Leaf {
		c := mustNew(t, smallParams(77))
		var leaves []Leaf
		for i := 0; i < 100; i++ {
			_, tr, err := c.Access(OpRead, Addr(i%50), nil)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, tr.PathLeaf)
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

// newTestRand gives tests their own deterministic randomness without
// importing math/rand.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed*2654435761 + 1} }

func (r *testRand) Intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % uint64(n))
}

// The baseline controller compares seal versions too (LoadPathWith,
// PeekWith): its access paths refuse to run the cursor into a wrap.
func TestSealVersionsExhausted(t *testing.T) {
	c := mustNew(t, smallParams(3))
	last := uint32(math.MaxUint32 - sealVersionEvictions*c.Tree.PathBlocks())
	c.SetVerSeq(last)
	if _, _, err := c.Access(OpWrite, 1, val(1, 1, 64)); err != nil {
		t.Fatalf("access at the last admitted cursor value: %v", err)
	}
	cursor := c.VerSeq()
	if cursor <= last {
		t.Fatal("the admitted access drew no version")
	}
	if _, _, err := c.Access(OpRead, 1, nil); !errors.Is(err, ErrSealVersionsExhausted) {
		t.Fatalf("Access past the margin: %v", err)
	}
	if _, err := c.AccessRMW(1, nil); !errors.Is(err, ErrSealVersionsExhausted) {
		t.Fatalf("AccessRMW past the margin: %v", err)
	}
	if c.VerSeq() != cursor {
		t.Fatal("a refused access moved the cursor")
	}
	if got, err := c.Peek(1); err != nil || !bytes.Equal(got, val(1, 1, 64)) {
		t.Fatalf("block 1 reads %q (%v) after the refusals", got, err)
	}
}
