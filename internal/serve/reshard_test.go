package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crash"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// accessRetry drives one access through the serving layer the way a
// production client would: transient serving errors (migrating stripe,
// full queue, crash-recovered access) back off and re-issue.
func accessRetry(ctx context.Context, p *Pool, op oram.Op, addr uint64, data []byte) ([]byte, error) {
	for {
		v, _, err := p.Access(ctx, op, addr, data)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrResharding), errors.Is(err, ErrOverloaded), errors.Is(err, ErrInterrupted):
			time.Sleep(100 * time.Microsecond)
		default:
			return nil, err
		}
	}
}

// TestReshardOracleSplitThenMerge is the tentpole acceptance check: the
// concurrent differential oracle runs CONTINUOUSLY while the pool
// splits 4→8 and then merges 8→2. Each client owns a disjoint address
// range and diffs every returned value against its private reference;
// any lost, stale, or mis-routed block surfaces as a value mismatch.
// After both reshards a full Peek sweep and the structural invariants
// re-check every block against the merged references.
func TestReshardOracleSplitThenMerge(t *testing.T) {
	const (
		clients = 4
		perCli  = 48
	)
	blocks := uint64(clients * perCli)
	p := mustPool(t, Options{Shards: 4, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 6, Seed: 11})
	bb := p.BlockBytes()

	refs := make([]map[uint64][]byte, clients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make(map[uint64][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(c * perCli)
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, perCli, bb, 4096, uint64(900+c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i := 0; !stop.Load(); i++ {
				op := ops[i%len(ops)]
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				got, err := accessRetry(ctx, p, kind, addr, data)
				if err != nil {
					errc <- fmt.Errorf("client %d op %d: %v", c, i, err)
					return
				}
				want, ok := ref[addr]
				if !ok {
					want = zero
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("client %d op %d addr %d: got %.16q want %.16q", c, i, addr, got, want)
					return
				}
				if op.Write {
					ref[addr] = op.Data
				}
			}
		}(c)
	}

	settle := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			select {
			case err := <-errc:
				stop.Store(true)
				wg.Wait()
				t.Fatal(err)
			default:
			}
		}
	}

	settle(50 * time.Millisecond)
	if err := p.Reshard(context.Background(), 8); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("split 4→8: %v", err)
	}
	if got := p.Shards(); got != 8 {
		t.Errorf("after split Shards() = %d, want 8", got)
	}
	if got := p.Epoch(); got != 1 {
		t.Errorf("after split Epoch() = %d, want 1", got)
	}
	settle(50 * time.Millisecond)
	if err := p.Reshard(context.Background(), 2); err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("merge 8→2: %v", err)
	}
	if got, wantS, wantE := p.Shards(), 2, uint64(2); got != wantS || p.Epoch() != wantE {
		t.Errorf("after merge Shards()=%d Epoch()=%d, want %d/%d", got, p.Epoch(), wantS, wantE)
	}
	settle(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	for _, err := range p.Invariants(context.Background()) {
		t.Errorf("invariant: %v", err)
	}
	zero := make([]byte, bb)
	for c := 0; c < clients; c++ {
		for a := uint64(c * perCli); a < uint64((c+1)*perCli); a++ {
			got, err := p.Peek(context.Background(), a)
			if err != nil {
				t.Fatalf("peek %d: %v", a, err)
			}
			want, ok := refs[c][a]
			if !ok {
				want = zero
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("final sweep addr %d: got %.16q want %.16q", a, got, want)
			}
		}
	}
}

// TestReshardDurableAdoption: resharding a file-backed pool commits the
// new topology to the store's TOPOLOGY manifest, and a reopen — even
// one asking for the stale shard count — adopts the committed layout
// and serves every value.
func TestReshardDurableAdoption(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 3, NumBlocks: 90, Scheme: config.SchemePSORAM, Seed: 42, StoreDir: dir}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bb := p.BlockBytes()
	want := make(map[uint64][]byte)
	for i := 0; i < 120; i++ {
		addr := uint64(i*7) % opts.NumBlocks
		v := bytes.Repeat([]byte{byte(i + 1)}, bb)
		copy(v, fmt.Sprintf("pre%03d-%03d", addr, i))
		if err := p.Write(ctx, addr, v); err != nil {
			t.Fatal(err)
		}
		want[addr] = v
	}
	if err := p.Reshard(ctx, 5); err != nil {
		t.Fatalf("reshard 3→5: %v", err)
	}
	if got := p.Shards(); got != 5 {
		t.Fatalf("Shards() = %d, want 5", got)
	}
	// Post-reshard writes land in the new epoch's stores.
	for i := 0; i < 30; i++ {
		addr := uint64(i*11) % opts.NumBlocks
		v := bytes.Repeat([]byte{byte(i + 9)}, bb)
		copy(v, fmt.Sprintf("post%03d", addr))
		if err := p.Write(ctx, addr, v); err != nil {
			t.Fatal(err)
		}
		want[addr] = v
	}
	if err := p.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// On-disk layout: committed TOPOLOGY, epoch dir present, legacy
	// shard dirs and staging debris gone.
	topo, err := filestore.ReadTopology(dir)
	if err != nil || topo == nil {
		t.Fatalf("ReadTopology = %v, %v; want committed manifest", topo, err)
	}
	if topo.Epoch != 1 || topo.Shards != 5 {
		t.Fatalf("topology = %+v, want epoch 1 shards 5", topo)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-000")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("legacy shard-000 still present after committed reshard (err=%v)", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.IsDir() && e.Name()[0] == '.' {
			t.Errorf("staging debris left behind: %s", e.Name())
		}
	}

	// Reopen asking for the pre-reshard shard count: the manifest wins.
	p2 := mustPool(t, opts)
	if got := p2.Shards(); got != 5 {
		t.Fatalf("reopened Shards() = %d, want 5 (topology adoption)", got)
	}
	if got := p2.Epoch(); got != 1 {
		t.Fatalf("reopened Epoch() = %d, want 1", got)
	}
	zero := make([]byte, bb)
	for a := uint64(0); a < opts.NumBlocks; a++ {
		got, err := p2.Read(ctx, a)
		if err != nil {
			t.Fatalf("addr %d unreadable after reshard+restart: %v", a, err)
		}
		w, ok := want[a]
		if !ok {
			w = zero
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("addr %d = %.12q, want %.12q", a, got, w)
		}
	}
	if errs := p2.Invariants(ctx); len(errs) != 0 {
		t.Fatalf("invariants after reshard+restart: %v", errs)
	}
}

// gatedBackend is a map-backed test backend whose Peek parks on a gate,
// letting tests freeze a reshard mid-extraction deterministically. It
// counts its Peek (before the gate) and Invariants calls.
type gatedBackend struct {
	n    uint64
	bb   int
	gate chan struct{} // nil = never blocks
	m    map[oram.Addr][]byte

	peeks, invariants atomic.Int32
}

func newGatedBackend(n uint64, bb int, gate chan struct{}) *gatedBackend {
	return &gatedBackend{n: n, bb: bb, gate: gate, m: make(map[oram.Addr][]byte)}
}

func (b *gatedBackend) Scheme() config.Scheme { return config.SchemeNonORAM }
func (b *gatedBackend) NumBlocks() uint64     { return b.n }
func (b *gatedBackend) BlockBytes() int       { return b.bb }
func (b *gatedBackend) Leaves() uint64        { return 0 }
func (b *gatedBackend) Recover() error        { return nil }

func (b *gatedBackend) Invariants() []error {
	b.invariants.Add(1)
	return nil
}

func (b *gatedBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	// Deliberately bypasses the gate: only Peek (the extraction and
	// debug path) parks, so ordinary traffic flows while a test holds a
	// migration frozen.
	prev, ok := b.m[addr]
	if !ok {
		prev = make([]byte, b.bb)
	} else {
		prev = append([]byte(nil), prev...)
	}
	if op == oram.OpWrite {
		b.m[addr] = append([]byte(nil), data...)
	}
	return prev, 0, nil
}

func (b *gatedBackend) Peek(addr oram.Addr) ([]byte, error) {
	b.peeks.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	if v, ok := b.m[addr]; ok {
		return append([]byte(nil), v...), nil
	}
	return make([]byte, b.bb), nil
}

// TestReshardBackpressureAndBusy freezes a reshard mid-extraction and
// checks the serving contract of the frozen window: the migrating
// stripe fails fast with ErrResharding, the other stripes keep serving,
// a second Reshard reports ErrReshardBusy, and once migration resumes
// the pool lands on the new topology with every value intact.
func TestReshardBackpressureAndBusy(t *testing.T) {
	const blocks = 16
	gate := make(chan struct{})
	var built atomic.Int32
	p := mustPool(t, Options{
		Shards: 2, NumBlocks: blocks, QueueDepth: 8, MaxBatch: 1,
		Factory: func(s int, local uint64) (Backend, error) {
			// Only the original two shards gate their Peek; the shards
			// Reshard builds must extract (and later serve) freely.
			var g chan struct{}
			if built.Add(1) <= 2 {
				g = gate
			}
			return newGatedBackend(local, 16, g), nil
		},
	})
	ctx := context.Background()
	want := make(map[uint64][]byte)
	for a := uint64(0); a < blocks; a++ {
		v := bytes.Repeat([]byte{byte(a + 1)}, 16)
		if err := p.Write(ctx, a, v); err != nil {
			t.Fatal(err)
		}
		want[a] = v
	}

	resharded := make(chan error, 1)
	go func() { resharded <- p.Reshard(ctx, 4) }()

	// Wait until stripe 0 is frozen: its old shard's worker is parked in
	// the gated extraction, so an access to addr 0 bounces.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("stripe 0 never froze")
		}
		_, _, err := p.Access(ctx, oram.OpRead, 0, nil)
		if errors.Is(err, ErrResharding) {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error while waiting for freeze: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !p.Resharding() {
		t.Error("Resharding() = false with a stripe frozen")
	}

	// Unaffected stripe keeps serving through the freeze.
	got, _, err := p.Access(ctx, oram.OpRead, 1, nil)
	if err != nil {
		t.Fatalf("stripe 1 stalled during stripe 0 migration: %v", err)
	}
	if !bytes.Equal(got, want[1]) {
		t.Fatalf("stripe 1 read = %.8q, want %.8q", got, want[1])
	}

	// Only one reshard at a time.
	if err := p.Reshard(ctx, 8); !errors.Is(err, ErrReshardBusy) {
		t.Fatalf("concurrent Reshard = %v, want ErrReshardBusy", err)
	}

	close(gate)
	if err := <-resharded; err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if got := p.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if p.Resharding() {
		t.Error("Resharding() = true after commit")
	}
	for a := uint64(0); a < blocks; a++ {
		got, err := p.Peek(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[a]) {
			t.Fatalf("addr %d = %.8q after reshard, want %.8q", a, got, want[a])
		}
	}

	// No-op and validation edges.
	if err := p.Reshard(ctx, 4); err != nil {
		t.Errorf("same-count reshard = %v, want nil", err)
	}
	if err := p.Reshard(ctx, 0); err == nil {
		t.Error("Reshard(0) accepted")
	}
	if err := p.Reshard(ctx, blocks+1); err == nil {
		t.Error("Reshard(> NumBlocks) accepted")
	}
}

// TestReshardAbortOnCancel: cancelling the context mid-migration
// reverts to the old topology with no acknowledged write lost.
func TestReshardAbortOnCancel(t *testing.T) {
	const blocks = 12
	gate := make(chan struct{})
	var built atomic.Int32
	p := mustPool(t, Options{
		Shards: 2, NumBlocks: blocks, MaxBatch: 1,
		Factory: func(s int, local uint64) (Backend, error) {
			var g chan struct{}
			if built.Add(1) <= 2 {
				g = gate
			}
			return newGatedBackend(local, 16, g), nil
		},
	})
	ctx := context.Background()
	want := make(map[uint64][]byte)
	for a := uint64(0); a < blocks; a++ {
		v := bytes.Repeat([]byte{byte(0xA0 + a)}, 16)
		if err := p.Write(ctx, a, v); err != nil {
			t.Fatal(err)
		}
		want[a] = v
	}

	rctx, cancel := context.WithCancel(ctx)
	resharded := make(chan error, 1)
	go func() { resharded <- p.Reshard(rctx, 3) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("stripe 0 never froze")
		}
		if _, _, err := p.Access(ctx, oram.OpRead, 0, nil); errors.Is(err, ErrResharding) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-resharded
	if err == nil || errors.Is(err, ErrReshardBusy) {
		t.Fatalf("cancelled reshard = %v, want abort error", err)
	}
	if got := p.Shards(); got != 2 {
		t.Fatalf("Shards() = %d after abort, want 2 (old topology)", got)
	}
	if p.Resharding() {
		t.Error("Resharding() = true after abort")
	}
	if got := p.Epoch(); got != 0 {
		t.Errorf("Epoch() = %d after abort, want 0", got)
	}

	// The extraction exec is still parked on the gate; release it so the
	// old worker drains, then verify every pre-abort value survived and
	// the reverted pool still serves writes.
	close(gate)
	for a := uint64(0); a < blocks; a++ {
		got, err := accessRetry(ctx, p, oram.OpRead, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[a]) {
			t.Fatalf("addr %d = %.8q after abort, want %.8q", a, got, want[a])
		}
	}
	v := bytes.Repeat([]byte{0x5A}, 16)
	if _, err := accessRetry(ctx, p, oram.OpWrite, 3, v); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
	got, err := p.Peek(ctx, 3)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("post-abort write readback = %.8q, %v", got, err)
	}
}

// closureRig is a pool of two gated shards halfway into a reshard to
// four: stripe 0 is frozen and its extraction is parked in old shard 0's
// Peek. Old shard s's Peek parks on gates[s]; the replacement shards
// never park. The pool's closure requests (Peek, Invariants, ArmCrash)
// are pinned against it.
type closureRig struct {
	p         *Pool
	gates     [2]chan struct{}
	open      [2]sync.Once
	mu        sync.Mutex
	old, next []*armCounting
	resharded chan error
}

func newClosureRig(t *testing.T) *closureRig {
	t.Helper()
	r := &closureRig{
		gates:     [2]chan struct{}{make(chan struct{}), make(chan struct{})},
		resharded: make(chan error, 1),
	}
	r.p = mustPool(t, Options{
		Shards: 2, NumBlocks: 16, MaxBatch: 1,
		Factory: func(s int, local uint64) (Backend, error) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(r.old) < 2 {
				b := &armCounting{Backend: newGatedBackend(local, 16, r.gates[s])}
				r.old = append(r.old, b)
				return b, nil
			}
			b := &armCounting{Backend: newGatedBackend(local, 16, nil)}
			r.next = append(r.next, b)
			return b, nil
		},
	})
	// Runs before mustPool's Close, which would wait out the parked
	// reshard.
	t.Cleanup(func() { r.release(0); r.release(1) })
	go func() { r.resharded <- r.p.Reshard(context.Background(), 4) }()
	waitFor(t, func() bool { return r.gated(r.shard(true, 0)).peeks.Load() > 0 }, "stripe 0 never froze")
	return r
}

// release opens old shard s's gate (idempotent).
func (r *closureRig) release(s int) { r.open[s].Do(func() { close(r.gates[s]) }) }

// shard returns old (or replacement) backend i.
func (r *closureRig) shard(old bool, i int) *armCounting {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old {
		return r.old[i]
	}
	return r.next[i]
}

func (r *closureRig) gated(b *armCounting) *gatedBackend { return b.Backend.(*gatedBackend) }

// all returns every backend built: the old set, then the replacement.
func (r *closureRig) all() []*armCounting {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(append([]*armCounting(nil), r.old...), r.next...)
}

// finish releases both gates and requires the reshard to commit.
func (r *closureRig) finish(t *testing.T) {
	t.Helper()
	r.release(0)
	r.release(1)
	if err := <-r.resharded; err != nil {
		t.Fatalf("reshard: %v", err)
	}
}

// TestReshardPeekFrozenStripe: Peek of a frozen stripe fails fast with
// ErrResharding and never reaches a backend.
func TestReshardPeekFrozenStripe(t *testing.T) {
	r := newClosureRig(t)
	peeks := func() (n int32) {
		for _, b := range r.all() {
			n += r.gated(b).peeks.Load()
		}
		return n
	}
	before := peeks()
	for _, addr := range []uint64{0, 2, 14} { // all on stripe 0
		if _, err := r.p.Peek(context.Background(), addr); !errors.Is(err, ErrResharding) {
			t.Fatalf("Peek(%d) of the frozen stripe = %v, want ErrResharding", addr, err)
		}
	}
	if n := peeks(); n != before {
		t.Fatalf("Peek of a frozen stripe reached a backend (%d peeks, was %d)", n, before)
	}
	r.finish(t)
}

// TestReshardInvariantsCoverBothSets: Invariants issued while a stripe
// is frozen waits behind the parked extraction, returns once migration
// resumes, and checks every shard of both sets exactly once.
func TestReshardInvariantsCoverBothSets(t *testing.T) {
	r := newClosureRig(t)
	res := make(chan []error, 1)
	go func() { res <- r.p.Invariants(context.Background()) }()
	waitFor(t, func() bool { return r.p.Stats().Shards[0].QueueDepth == 1 }, "Invariants never queued behind the extraction")
	select {
	case errs := <-res:
		t.Fatalf("Invariants returned %v while its shard was parked", errs)
	default:
	}
	r.release(0)
	// Stripe 1's extraction parks on the second gate, so the old set
	// cannot be retired before Invariants has reached old shard 1: either
	// it already ran there, or it is queued behind that extraction.
	old1 := r.gated(r.shard(true, 1))
	waitFor(t, func() bool {
		return old1.invariants.Load() == 1 || (old1.peeks.Load() > 0 && r.p.Stats().Shards[1].QueueDepth == 1)
	}, "Invariants never reached old shard 1")
	r.release(1)
	if errs := <-res; len(errs) != 0 {
		t.Fatalf("Invariants = %v", errs)
	}
	r.finish(t)
	for i, b := range r.all() {
		if n := r.gated(b).invariants.Load(); n != 1 {
			t.Errorf("backend %d (of 2 old, then 4 new) checked %d times, want 1", i, n)
		}
	}
}

// TestReshardArmCrashOldSetIndex: mid-reshard, ArmCrash indexes the old
// (still serving) set: it arms that shard and nothing else.
func TestReshardArmCrashOldSetIndex(t *testing.T) {
	r := newClosureRig(t)
	if err := r.p.ArmCrash(context.Background(), 1, func(oracle.CrashSpec) bool { return false }); err != nil {
		t.Fatal(err)
	}
	r.finish(t)
	for i, b := range r.all() {
		want := int32(0)
		if i == 1 {
			want = 1
		}
		if n := b.arms.Load(); n != want {
			t.Errorf("backend %d (of 2 old, then 4 new) armed %d times, want %d", i, n, want)
		}
	}
}

// TestReshardKeepsPendingWrite: a live Reshard migrates every
// acknowledged value, including a write whose remap is still pending.
// The WPQs hold two entries, so the ordered eviction leaves remaps
// pending across accesses; in a durable snapshot such a block still
// holds its older value, so extraction must read the live shard.
func TestReshardKeepsPendingWrite(t *testing.T) {
	const blocks = 80
	cfg := config.Default()
	cfg.StashEntries = 150
	cfg.TempPosMapSize = 16
	cfg.DataWPQEntries, cfg.PosMapWPQEntries = 2, 2
	cfg.OnChipPosMapBytes = 4 * 64 * 8
	p := mustPool(t, Options{Shards: 1, NumBlocks: blocks, Scheme: config.SchemePSORAM,
		Factory: func(_ int, local uint64) (Backend, error) {
			tg, err := oracle.NewTarget(oracle.Params{Scheme: config.SchemePSORAM, NumBlocks: local, Levels: 5, Seed: 1, Cfg: &cfg})
			if err != nil {
				return nil, err
			}
			return tg.(Backend), nil
		}})
	ctx := context.Background()
	want := make([][]byte, blocks)
	for _, op := range (crash.Workload{NumBlocks: blocks, Accesses: 21, Seed: 30, WriteRatio: 0.7}).Ops(p.BlockBytes()) {
		if !op.Write {
			if _, err := p.Read(ctx, op.Addr); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := p.Write(ctx, op.Addr, op.Data); err != nil {
			t.Fatal(err)
		}
		want[op.Addr] = op.Data
	}
	if err := p.Reshard(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for a, w := range want {
		if w == nil {
			w = make([]byte, p.BlockBytes())
		}
		got, err := p.Read(ctx, uint64(a))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Errorf("addr %d reads %.8q after the reshard, want %.8q", a, got, w)
		}
	}
}
