package ringoram

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

func params(persist bool) Params {
	return Params{
		Levels:         5,
		Z:              4,
		S:              4,
		A:              3,
		BlockBytes:     64,
		StashEntries:   150,
		NumBlocks:      100,
		Seed:           11,
		Persist:        persist,
		JournalEntries: 24,
	}
}

func newRing(t *testing.T, persist bool) *Controller {
	t.Helper()
	c, err := New(params(persist), config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func val(addr oram.Addr, v int) []byte {
	b := make([]byte, 64)
	copy(b, []byte(fmt.Sprintf("r%d.v%d", addr, v)))
	return b
}

type lcg struct{ s uint64 }

func (l *lcg) n(n int) int {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return int((l.s >> 33) % uint64(n))
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Z = 0 },
		func(p *Params) { p.S = 0 },
		func(p *Params) { p.A = 0 },
		func(p *Params) { p.S = 1 }, // S < A
		func(p *Params) { p.NumBlocks = 0 },
		func(p *Params) { p.NumBlocks = 1 << 20 },
		func(p *Params) { p.BlockBytes = 0 },
		func(p *Params) { p.StashEntries = 4 },
		func(p *Params) { p.JournalEntries = 0 }, // with Persist
	}
	for i, mut := range bad {
		p := params(true)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestReadAfterWrite(t *testing.T) {
	for _, persist := range []bool{false, true} {
		c := newRing(t, persist)
		want := val(5, 1)
		if _, err := c.Access(oram.OpWrite, 5, want); err != nil {
			t.Fatal(err)
		}
		got, err := c.Access(oram.OpRead, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("persist=%v: read %q", persist, got)
		}
	}
}

func TestLongRunPreservesValues(t *testing.T) {
	for _, persist := range []bool{false, true} {
		persist := persist
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			c := newRing(t, persist)
			ref := make(map[oram.Addr][]byte)
			r := &lcg{s: 3}
			for i := 0; i < 1200; i++ {
				addr := oram.Addr(r.n(100))
				if r.n(2) == 0 {
					v := val(addr, i)
					if _, err := c.Access(oram.OpWrite, addr, v); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					ref[addr] = v
				} else {
					got, err := c.Access(oram.OpRead, addr, nil)
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					want := ref[addr]
					if want == nil {
						want = make([]byte, 64)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("access %d: addr %d = %q want %q", i, addr, got, want)
					}
				}
			}
			// Final sweep.
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

func TestRingReadsOneBlockPerBucket(t *testing.T) {
	// Ring ORAM's bandwidth advantage: a read touches (L+1) blocks, not
	// Z*(L+1). Measure reads between accesses that trigger no eviction.
	c := newRing(t, false)
	r := &lcg{s: 9}
	prev := c.Mem.Counters().Get("nvm.reads")
	pathLen := int64(c.Tree.L + 1)
	minimal := 0
	for i := 0; i < 60; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		reads := c.Mem.Counters().Get("nvm.reads")
		if reads-prev == pathLen {
			minimal++
		}
		prev = reads
	}
	if minimal < 20 {
		t.Fatalf("only %d/60 accesses were (L+1)-read accesses; Ring read path broken", minimal)
	}
}

func TestScheduledEvictionsHappen(t *testing.T) {
	c := newRing(t, false)
	r := &lcg{s: 5}
	for i := 0; i < 30; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Counter("ring.evictions"); got < 30/int64(c.P.A) {
		t.Fatalf("evictions = %d, want >= %d (every A=%d accesses)", got, 30/c.P.A, c.P.A)
	}
}

func TestBucketCountersResetOnEviction(t *testing.T) {
	c := newRing(t, false)
	r := &lcg{s: 7}
	for i := 0; i < 200; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		for bIdx := range c.buckets {
			if c.buckets[bIdx].count > c.P.S {
				t.Fatalf("access %d: bucket %d count %d exceeds S=%d (reshuffle missing)",
					i, bIdx, c.buckets[bIdx].count, c.P.S)
			}
		}
	}
}

func TestStashBounded(t *testing.T) {
	c := newRing(t, true)
	r := &lcg{s: 13}
	peak := 0
	for i := 0; i < 600; i++ {
		if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
			t.Fatal(err)
		}
		if n := c.Stash.Len(); n > peak {
			peak = n
		}
	}
	if peak > 60 {
		t.Fatalf("stash peaked at %d", peak)
	}
}

func TestJournalBounded(t *testing.T) {
	c := newRing(t, true)
	r := &lcg{s: 17}
	for i := 0; i < 400; i++ {
		if _, err := c.Access(oram.OpWrite, oram.Addr(r.n(100)), val(0, i)); err != nil {
			t.Fatal(err)
		}
		if n := c.liveJournal(); n > c.P.JournalEntries {
			t.Fatalf("journal grew to %d > %d", n, c.P.JournalEntries)
		}
	}
	if c.Counter("ring.journal_appends") == 0 {
		t.Fatal("no journal activity in persist mode")
	}
}

func TestOutOfRangeAndBadWrites(t *testing.T) {
	c := newRing(t, true)
	if _, err := c.Access(oram.OpRead, 100, nil); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := c.Access(oram.OpWrite, 0, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() int64 {
		c := newRing(t, true)
		r := &lcg{s: 23}
		for i := 0; i < 150; i++ {
			if _, err := c.Access(oram.OpRead, oram.Addr(r.n(100)), nil); err != nil {
				t.Fatal(err)
			}
		}
		return c.Mem.Counters().Get("nvm.reads")
	}
	if run() != run() {
		t.Fatal("same seed diverged")
	}
}

// Ring ORAM resolves freshness by seal version too (Peek's bestVer), and
// draws from its own 32-bit cursor: within an access's worth of draws of
// wrapping, Access fails closed with the shared sentinel and leaves the
// controller as it was.
func TestSealVersionsExhaustedFailsClosed(t *testing.T) {
	for _, persist := range []bool{false, true} {
		c := newRing(t, persist)
		for i := 0; i < 50; i++ {
			if _, err := c.Access(oram.OpWrite, oram.Addr(i%20), val(oram.Addr(i%20), i)); err != nil {
				t.Fatal(err)
			}
		}
		c.verSeq = math.MaxUint32 - uint32(8*c.Tree.PathBlocks())
		admitted := 0
		var err error
		for i := 50; err == nil && i < 200; i++ {
			before := c.verSeq
			if _, err = c.Access(oram.OpWrite, oram.Addr(i%20), val(oram.Addr(i%20), i)); err == nil {
				admitted++
				if c.verSeq < before {
					t.Fatalf("persist=%v: the cursor wrapped from %d to %d", persist, before, c.verSeq)
				}
			}
		}
		if !errors.Is(err, oram.ErrSealVersionsExhausted) || admitted == 0 {
			t.Fatalf("persist=%v: %d accesses admitted at the margin, then %v", persist, admitted, err)
		}
		cursor, accesses := c.verSeq, c.Accesses()
		if _, err := c.Access(oram.OpRead, 1, nil); !errors.Is(err, oram.ErrSealVersionsExhausted) {
			t.Fatalf("persist=%v: second refused access: %v", persist, err)
		}
		if c.verSeq != cursor || c.Accesses() != accesses {
			t.Fatalf("persist=%v: a refused access changed the controller", persist)
		}
	}
}
