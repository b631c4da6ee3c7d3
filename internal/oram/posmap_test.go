package oram

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPosMapInitialLeavesInRange(t *testing.T) {
	tr := NewTree(6, 4)
	p := NewPosMap(500, tr, rng.New(1))
	if p.Len() != 500 {
		t.Fatalf("Len = %d", p.Len())
	}
	for a := Addr(0); a < 500; a++ {
		if uint64(p.Lookup(a)) >= tr.Leaves() {
			t.Fatalf("leaf %d out of range", p.Lookup(a))
		}
	}
}

func TestPosMapInitialLeavesSpread(t *testing.T) {
	tr := NewTree(6, 4)
	p := NewPosMap(1000, tr, rng.New(2))
	seen := map[Leaf]bool{}
	for a := Addr(0); a < 1000; a++ {
		seen[p.Lookup(a)] = true
	}
	if len(seen) < int(tr.Leaves())/2 {
		t.Fatalf("initial leaves cover only %d/%d", len(seen), tr.Leaves())
	}
}

func TestPosMapCloneIndependent(t *testing.T) {
	tr := NewTree(4, 4)
	p := NewPosMap(10, tr, rng.New(4))
	c := p.Clone()
	p.Put(0, p.Lookup(0)+1)
	if c.Lookup(0) == p.Lookup(0) {
		t.Fatal("clone aliases the original")
	}
}

func TestPosMapOutOfRangePanics(t *testing.T) {
	tr := NewTree(4, 4)
	p := NewPosMap(10, tr, rng.New(5))
	for name, f := range map[string]func(){
		"lookup": func() { p.Lookup(10) },
		"put":    func() { p.Put(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTempPosMapBasics(t *testing.T) {
	tp := NewTempPosMap(4)
	if tp.Capacity() != 4 || tp.Len() != 0 || tp.Full() {
		t.Fatal("fresh temp posmap wrong")
	}
	tp.Set(1, 10)
	tp.Set(2, 20)
	if l, ok := tp.Lookup(1); !ok || l != 10 {
		t.Fatal("lookup wrong")
	}
	if _, ok := tp.Lookup(3); ok {
		t.Fatal("phantom entry")
	}
	tp.Delete(1)
	if _, ok := tp.Lookup(1); ok || tp.Len() != 1 {
		t.Fatal("delete failed")
	}
}

func TestTempPosMapOverwriteDoesNotGrow(t *testing.T) {
	tp := NewTempPosMap(2)
	tp.Set(1, 10)
	tp.Set(1, 11)
	if tp.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", tp.Len())
	}
	if l, _ := tp.Lookup(1); l != 11 {
		t.Fatal("overwrite lost")
	}
}

func TestTempPosMapOverflowPanics(t *testing.T) {
	tp := NewTempPosMap(2)
	tp.Set(1, 1)
	tp.Set(2, 2)
	tp.Set(1, 3) // overwrite of existing is fine even when full
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow insert")
		}
	}()
	tp.Set(3, 3)
}

func TestTempPosMapOldest(t *testing.T) {
	tp := NewTempPosMap(8)
	if _, ok := tp.Oldest(); ok {
		t.Fatal("empty map has no oldest")
	}
	tp.Set(5, 1)
	tp.Set(6, 2)
	tp.Set(7, 3)
	if a, ok := tp.Oldest(); !ok || a != 5 {
		t.Fatalf("oldest = %d, want 5", a)
	}
	// Re-setting 5 refreshes its age; 6 becomes oldest.
	tp.Set(5, 9)
	if a, _ := tp.Oldest(); a != 6 {
		t.Fatalf("oldest after refresh = %d, want 6", a)
	}
	tp.Delete(6)
	if a, _ := tp.Oldest(); a != 7 {
		t.Fatalf("oldest after delete = %d, want 7", a)
	}
}

func TestTempPosMapNeverExceedsCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tp := NewTempPosMap(8)
		for _, op := range ops {
			addr := Addr(op % 32)
			if op%4 == 0 {
				tp.Delete(addr)
				continue
			}
			if _, exists := tp.Lookup(addr); !exists && tp.Full() {
				// Caller's contract: drain before inserting.
				old, _ := tp.Oldest()
				tp.Delete(old)
			}
			tp.Set(addr, Leaf(op))
			if tp.Len() > tp.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
