package oram

import (
	"math/rand"
	"testing"
)

// stashAddrPool is the address domain of the model test: 32 sequential
// addresses, then 32 whose home slot in the smallest (16-slot) table is
// one of the last two, so that their probe chains wrap the table end.
func stashAddrPool() []Addr {
	pool := make([]Addr, 0, 64)
	for a := Addr(0); a < 32; a++ {
		pool = append(pool, a)
	}
	x := newAddrIndex(1)
	for a := Addr(1000); len(pool) < 64; a++ {
		if x.home(a) >= uint32(len(x.slots)-2) {
			pool = append(pool, a)
		}
	}
	return pool
}

// checkIndex verifies addrIndex's own invariants against the owner's
// dense array.
func checkIndex(t *testing.T, x *addrIndex, dense []*StashBlock) {
	t.Helper()
	if len(x.keys) != len(dense) {
		t.Fatalf("index holds %d keys, owner %d blocks", len(x.keys), len(dense))
	}
	if 2*len(x.keys) > len(x.slots) {
		t.Fatalf("table over half full: %d keys in %d slots", len(x.keys), len(x.slots))
	}
	seen := make([]bool, len(x.keys))
	for _, p := range x.slots {
		if p < 0 {
			continue
		}
		if int(p) >= len(seen) || seen[p] {
			t.Fatalf("slot holds position %d (out of range or twice)", p)
		}
		seen[p] = true
	}
	for p, a := range x.keys {
		if !seen[p] {
			t.Fatalf("position %d (addr %d) is in no slot", p, a)
		}
		if dense[p].Addr != a {
			t.Fatalf("position %d: index says addr %d, owner holds %d", p, a, dense[p].Addr)
		}
		if got := x.find(a); got != p {
			t.Fatalf("find(%d) = %d, want %d", a, got, p)
		}
	}
}

// runStashModel interprets ops — (opcode, address selector) byte pairs —
// against a Stash and a map reference, comparing them after every step.
func runStashModel(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	pool := stashAddrPool()
	s := NewStash(capacity)
	ref := map[Addr]*StashBlock{}
	for i := 0; i+1 < len(ops); i += 2 {
		addr := pool[int(ops[i+1])%len(pool)]
		switch op := ops[i] % 8; {
		case op < 4: // insert, or replace the resident block
			b := &StashBlock{Addr: addr, Leaf: Leaf(i)}
			s.Put(b)
			ref[addr] = b
		case op < 6:
			s.Remove(addr)
			delete(ref, addr)
		case op == 7 && ops[i+1]%16 == 0:
			s.Reset()
			clear(ref)
		}
		if s.Get(addr) != ref[addr] {
			t.Fatalf("step %d: Get(%d) disagrees with the reference", i/2, addr)
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, reference holds %d", i/2, s.Len(), len(ref))
		}
		if i%16 != 0 {
			continue
		}
		checkIndex(t, &s.idx, s.live)
		live := s.Live()
		if len(live) != len(ref) {
			t.Fatalf("step %d: Live returned %d blocks, reference holds %d", i/2, len(live), len(ref))
		}
		for _, b := range live {
			if ref[b.Addr] != b {
				t.Fatalf("step %d: Live holds a block for %d the reference does not", i/2, b.Addr)
			}
		}
		for a, b := range ref {
			if s.Get(a) != b {
				t.Fatalf("step %d: Get(%d) lost the reference's block", i/2, a)
			}
		}
	}
	checkIndex(t, &s.idx, s.live)
}

// TestStashModel is the model-based property test of the open-addressed
// stash: random insert/replace/lookup/remove/reset sequences against a
// map, over a pool that forces wrapped probe chains, from a capacity
// small enough that the table doubles several times.
func TestStashModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*4000)
		r.Read(ops)
		runStashModel(t, 4, ops)
	}
}

// TestStashWrappedChainDeletion walks the case backward-shift deletion
// gets wrong first: a cluster that starts in the last slots, wraps to
// slot 0, and loses its members in every order.
func TestStashWrappedChainDeletion(t *testing.T) {
	pool := stashAddrPool()[32:40] // 8 addresses homed in the last two of 16 slots
	for first := range pool {
		s := NewStash(8)
		for _, a := range pool {
			s.Put(&StashBlock{Addr: a})
		}
		if len(s.idx.slots) != 16 {
			t.Fatalf("table grew to %d slots; the chain no longer wraps", len(s.idx.slots))
		}
		if s.idx.slots[0] < 0 {
			t.Fatal("probe chain did not wrap the table end")
		}
		for i := range pool {
			a := pool[(first+i)%len(pool)]
			s.Remove(a)
			if s.Get(a) != nil {
				t.Fatalf("addr %d still resident after Remove", a)
			}
			checkIndex(t, &s.idx, s.live) // every remaining address still found
			if want := len(pool) - i - 1; s.Len() != want {
				t.Fatalf("removing %d left %d blocks, want %d", a, s.Len(), want)
			}
		}
	}
}

// TestStashRemoveLastLive: removing the block at the last dense position
// is the swap-remove's degenerate case (nothing moves).
func TestStashRemoveLastLive(t *testing.T) {
	s := NewStash(8)
	for a := Addr(0); a < 5; a++ {
		s.Put(&StashBlock{Addr: a})
	}
	s.Remove(4)
	checkIndex(t, &s.idx, s.live)
	if s.Len() != 4 || s.Get(4) != nil || s.Get(3) == nil {
		t.Fatal("removing the last live block disturbed the rest")
	}
	for a := Addr(0); a < 4; a++ {
		s.Remove(a)
	}
	checkIndex(t, &s.idx, s.live)
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", s.Len())
	}
}

// FuzzStashTable feeds runStashModel coverage-guided op sequences.
func FuzzStashTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 0, 6, 1})
	f.Add([]byte{0, 32, 0, 33, 0, 34, 0, 35, 4, 32, 4, 34, 7, 0, 0, 36})
	r := rand.New(rand.NewSource(7))
	seed := make([]byte, 512)
	r.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runStashModel(t, 4, ops)
	})
}

// TestStashSteadyStateAllocs: at a warm occupancy the three table
// operations of the access path allocate nothing.
func TestStashSteadyStateAllocs(t *testing.T) {
	s := NewStash(200)
	blocks := make([]*StashBlock, 150)
	for i := range blocks {
		blocks[i] = &StashBlock{Addr: Addr(i * 37)}
		s.Put(blocks[i])
	}
	var sink *StashBlock
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		b := blocks[i%len(blocks)]
		i++
		s.Remove(b.Addr)
		sink = s.Get(b.Addr)
		s.Put(b)
		sink = s.Get(b.Addr)
	})
	if allocs != 0 || sink == nil {
		t.Fatalf("stash Put/Get/Remove allocate %.2f/op, want 0", allocs)
	}
}

// TestTempPosMapModel: the temporary PosMap shares the stash's table;
// check its own surface — Set/overwrite/Lookup/Delete/Oldest — against
// a map.
func TestTempPosMapModel(t *testing.T) {
	type refEntry struct {
		leaf Leaf
		seq  uint64
	}
	pool := stashAddrPool()
	r := rand.New(rand.NewSource(3))
	tp := NewTempPosMap(24)
	ref := map[Addr]refEntry{}
	for step := 0; step < 20000; step++ {
		a := pool[r.Intn(len(pool))]
		switch r.Intn(3) {
		case 0, 1:
			if _, ok := ref[a]; !ok && tp.Full() {
				break
			}
			l := Leaf(r.Intn(1 << 10))
			ref[a] = refEntry{l, tp.Set(a, l)}
		case 2:
			tp.Delete(a)
			delete(ref, a)
		}
		l, ok := tp.Lookup(a)
		if e, want := ref[a]; ok != want || l != e.leaf {
			t.Fatalf("step %d: Lookup(%d) = (%d, %v), reference (%d, %v)", step, a, l, ok, e.leaf, want)
		}
		if tp.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, reference %d", step, tp.Len(), len(ref))
		}
		oldest, ok := tp.Oldest()
		if ok != (len(ref) > 0) {
			t.Fatalf("step %d: Oldest ok = %v with %d entries", step, ok, len(ref))
		}
		for _, e := range ref {
			if e.seq < ref[oldest].seq {
				t.Fatalf("step %d: Oldest returned %d (seq %d), but seq %d is pending", step, oldest, ref[oldest].seq, e.seq)
			}
		}
	}
}
