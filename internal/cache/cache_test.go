package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache { return New("t", 1024, 2, 64, 2, 2) } // 8 sets x 2 ways

func TestHitAfterFill(t *testing.T) {
	c := small()
	if r := c.Access(5, false); r.Hit {
		t.Fatal("cold access cannot hit")
	}
	if r := c.Access(5, false); !r.Hit {
		t.Fatal("second access should hit")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Lines 0, 8, 16 all map to set 0 (8 sets). 2 ways: the third access
	// must evict line 0 (least recently used).
	c.Access(0, false)
	c.Access(8, false)
	c.Access(16, false)
	if r := c.Access(0, false); r.Hit {
		t.Fatal("line 0 should have been evicted")
	}
	// Line 16 must still be resident (wait: accessing 0 evicted 8).
	if r := c.Access(16, false); !r.Hit {
		t.Fatal("line 16 should be resident")
	}
}

func TestLRURecencyUpdate(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(8, false)
	c.Access(0, false) // 0 is now MRU; 8 is the victim
	c.Access(16, false)
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("recently touched line 0 was evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	c.Access(0, true) // dirty
	c.Access(8, false)
	r := c.Access(16, false) // evicts 0, dirty
	if r.Writeback == nil || *r.Writeback != 0 {
		t.Fatalf("expected writeback of line 0, got %v", r.Writeback)
	}
	c2 := small()
	c2.Access(0, false) // clean
	c2.Access(8, false)
	if r := c2.Access(16, false); r.Writeback != nil {
		t.Fatal("clean victim should not write back")
	}
}

func TestWriteMakesDirtyOnHit(t *testing.T) {
	c := small()
	c.Access(0, false) // clean fill
	c.Access(0, true)  // dirty on hit
	c.Access(8, false)
	if r := c.Access(16, false); r.Writeback == nil {
		t.Fatal("dirtied line should write back")
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 2, 64, 1, 1) },
		func() { New("x", 64, 4, 64, 1, 1) }, // 1 line, 4 ways -> 0 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCapacityProperty(t *testing.T) {
	// Property: touching exactly `lines` distinct lines that fit the
	// cache, twice, yields all hits on the second pass.
	f := func(seed uint8) bool {
		c := New("p", 2048, 4, 64, 1, 1) // 32 lines
		base := uint64(seed)
		for i := uint64(0); i < 32; i++ {
			c.Access(base+i, false)
		}
		for i := uint64(0); i < 32; i++ {
			if !c.Access(base+i, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	if c.HitRate() != 0 {
		t.Fatal("untouched cache hit rate should be 0")
	}
	c.Access(1, false)
	c.Access(1, false)
	if hr := c.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %f, want 0.5", hr)
	}
}
