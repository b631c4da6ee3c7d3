package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// poolTarget adapts a whole Pool to the oracle's Target shape, so the
// PR 2 differential oracle drives the serving layer exactly like it
// drives a bare controller. Leaves is 0: the pool stripes the keyspace
// over independent trees, so there is no single leaf sequence to probe
// (each shard's own obliviousness is covered by the oracle's per-scheme
// suite).
type poolTarget struct{ p *Pool }

func (t poolTarget) Scheme() config.Scheme { return t.p.Scheme() }
func (t poolTarget) NumBlocks() uint64     { return t.p.NumBlocks() }
func (t poolTarget) BlockBytes() int       { return t.p.BlockBytes() }
func (t poolTarget) Leaves() uint64        { return 0 }
func (t poolTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	return t.p.Access(context.Background(), op, uint64(addr), data)
}
func (t poolTarget) Peek(addr oram.Addr) ([]byte, error) {
	return t.p.Peek(context.Background(), uint64(addr))
}
func (t poolTarget) Invariants() []error { return t.p.Invariants(context.Background()) }

func mustPool(t testing.TB, opts Options) *Pool {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Bounded: a test that fails while a fake backend still holds a
		// worker must not hang the whole binary in the drain.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Close(ctx)
	})
	return p
}

// TestPoolOracle runs the differential oracle against a 4-shard pool for
// each scheme family: every access value diffs against the plain-map
// reference, and deep checks sweep every shard's invariants and full
// keyspace through the serving path.
func TestPoolOracle(t *testing.T) {
	schemes := []config.Scheme{config.SchemePSORAM, config.SchemeBaseline, config.SchemeRcrPSORAM}
	const blocks, nOps = 256, 96
	bb := config.Default().BlockBytes
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			p := mustPool(t, Options{Shards: 4, NumBlocks: blocks, Scheme: scheme, Levels: 6, Seed: 1})
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, blocks, bb, nOps, 1)
			rep, err := oracle.Check(poolTarget{p}, ops, oracle.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			if rep.DeepChecks == 0 {
				t.Error("no deep checks ran")
			}
		})
	}
}

// TestPoolConcurrentOracle is the tentpole acceptance check: 4 shards ×
// 4 concurrent clients under -race. Each client owns a contiguous
// address range (so its ops land on every shard) and diffs every value
// the pool returns against its private reference map; afterwards a
// Peek sweep and the structural invariants must agree with the merged
// references.
func TestPoolConcurrentOracle(t *testing.T) {
	concurrentOracle(t, func(ctx context.Context, p *Pool, _ int, op oram.Op, addr uint64, data []byte) ([]byte, error) {
		v, _, err := p.Access(ctx, op, addr, data)
		return v, err
	})
}

// TestPoolConcurrentOracleMixedGo runs the same proof with every other
// operation submitted through Go, so waited and completion-callback
// requests share queues, protocol rounds and read-combining.
func TestPoolConcurrentOracleMixedGo(t *testing.T) {
	concurrentOracle(t, func(ctx context.Context, p *Pool, i int, op oram.Op, addr uint64, data []byte) ([]byte, error) {
		if i%2 == 0 {
			return goAccess(ctx, p, op, addr, data)
		}
		v, _, err := p.Access(ctx, op, addr, data)
		return v, err
	})
}

// concurrentOracle drives the pool from 4 clients, each issuing its
// i-th operation through access.
func concurrentOracle(t *testing.T, access func(ctx context.Context, p *Pool, i int, op oram.Op, addr uint64, data []byte) ([]byte, error)) {
	const (
		shards  = 4
		clients = 4
		perCli  = 64
		nOps    = 200
	)
	blocks := uint64(clients * perCli)
	p := mustPool(t, Options{Shards: shards, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 7, Seed: 3})
	bb := p.BlockBytes()

	refs := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make(map[uint64][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(c * perCli)
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, perCli, bb, nOps, uint64(100+c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i, op := range ops {
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				got, err := access(ctx, p, i, kind, addr, data)
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

	st := p.Stats()
	if sub, _, done, _ := st.Totals(); sub == 0 || done < sub-uint64(clients) {
		t.Errorf("stats look wrong: submitted=%d completed=%d", sub, done)
	}
}

// TestCrashTorture kills shards mid-batch: every shard is armed with a
// periodic crash injector while concurrent clients hammer writes. An
// interrupted op returns ErrInterrupted after the shard recovers (§4.3);
// per the crash contract the value is then either the old or the new
// one, the client retries to convergence, and the final state must
// match the references exactly with all invariants intact.
func TestCrashTorture(t *testing.T) {
	const (
		shards  = 4
		clients = 4
		perCli  = 32
		nOps    = 150
	)
	blocks := uint64(clients * perCli)
	p := mustPool(t, Options{Shards: shards, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 6, Seed: 5})
	bb := p.BlockBytes()

	// Fire on every 41st offered crash point, pool-wide: frequent enough
	// to interrupt many batches, sparse enough to make progress.
	var points atomic.Uint64
	for s := 0; s < shards; s++ {
		if err := p.ArmCrash(context.Background(), s, func(oracle.CrashSpec) bool {
			return points.Add(1)%41 == 0
		}); err != nil {
			t.Fatal(err)
		}
	}

	refs := make([]map[uint64][]byte, clients)
	var wg sync.WaitGroup
	var interrupted atomic.Uint64
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make(map[uint64][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(c * perCli)
			ops := oracle.GenOps(oracle.Workload{Name: "write-heavy"}, perCli, bb, nOps, uint64(500+c))
			ref := refs[c]
			zero := make([]byte, bb)
			for i, op := range ops {
				addr := base + op.Addr
				kind, data := oram.OpRead, []byte(nil)
				if op.Write {
					kind, data = oram.OpWrite, op.Data
				}
				for attempt := 0; ; attempt++ {
					// A front-end checks every request against the pool's
					// shape while the shards crash and recover.
					if p.BlockBytes() != bb || p.Scheme() != config.SchemePSORAM {
						errc <- fmt.Errorf("client %d op %d: pool shape changed to %d-byte %v blocks", c, i, p.BlockBytes(), p.Scheme())
						return
					}
					got, _, err := p.Access(ctx, kind, addr, data)
					if errors.Is(err, ErrInterrupted) {
						interrupted.Add(1)
						if op.Write {
							// Crash contract: the interrupted write either
							// fully persisted or never happened.
							v, perr := p.Peek(ctx, addr)
							if perr != nil {
								errc <- fmt.Errorf("client %d op %d: peek after crash: %v", c, i, perr)
								return
							}
							old, ok := ref[addr]
							if !ok {
								old = zero
							}
							if !bytes.Equal(v, old) && !bytes.Equal(v, op.Data) {
								errc <- fmt.Errorf("client %d op %d addr %d: post-crash value %.16q is neither old %.16q nor new %.16q",
									c, i, addr, v, old, op.Data)
								return
							}
						}
						if attempt > 100 {
							errc <- fmt.Errorf("client %d op %d: no progress after %d crash retries", c, i, attempt)
							return
						}
						continue // re-issue: idempotent for both reads and writes
					}
					if err != nil {
						errc <- fmt.Errorf("client %d op %d: %v", c, i, err)
						return
					}
					_ = got // pre-op value is indeterminate across crash retries
					break
				}
				if op.Write {
					ref[addr] = op.Data
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Disarm and verify the end state.
	for s := 0; s < shards; s++ {
		if err := p.ArmCrash(context.Background(), s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range p.Invariants(context.Background()) {
		t.Errorf("invariant after torture: %v", err)
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
				t.Fatalf("post-torture addr %d: got %.16q want %.16q", a, got, want)
			}
		}
	}

	st := p.Stats()
	var crashes, recoveries uint64
	for _, s := range st.Shards {
		crashes += s.Crashes
		recoveries += s.Recoveries
	}
	if crashes == 0 {
		t.Fatal("torture ran but no crash ever fired")
	}
	if crashes != recoveries {
		t.Fatalf("crashes=%d recoveries=%d: a shard failed to recover", crashes, recoveries)
	}
	if got := interrupted.Load(); got != crashes {
		t.Errorf("clients saw %d interruptions, shards recorded %d crashes", got, crashes)
	}
	t.Logf("torture: %d crashes, all recovered", crashes)
}

// TestShardRoutingDeterminism pins the routing function: pure arithmetic
// on the address, identical across pool instances (i.e. restarts), and
// observable in the per-shard counters.
func TestShardRoutingDeterminism(t *testing.T) {
	const shards = 5
	for _, addr := range []uint64{0, 1, 4, 5, 63, 64, 1 << 40} {
		if a, b := ShardOf(addr, shards), ShardOf(addr, shards); a != b {
			t.Fatalf("ShardOf(%d) not deterministic: %d vs %d", addr, a, b)
		}
	}

	// Two pools from the same options are replicas: drive the same
	// addresses, observe the same shard receives each request.
	opts := Options{Shards: 4, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 9}
	route := func(p *Pool) [64]int {
		var owner [64]int
		before := p.Stats()
		for a := uint64(0); a < 64; a++ {
			if _, err := p.Read(context.Background(), a); err != nil {
				t.Fatal(err)
			}
			after := p.Stats()
			owner[a] = -1
			for s := range after.Shards {
				if after.Shards[s].Submitted > before.Shards[s].Submitted {
					owner[a] = s
				}
			}
			before = after
		}
		return owner
	}
	p1 := mustPool(t, opts)
	o1 := route(p1)
	if err := p1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	p2 := mustPool(t, opts) // the "restart"
	o2 := route(p2)
	for a := range o1 {
		want := ShardOf(uint64(a), opts.Shards)
		if o1[a] != want || o2[a] != want {
			t.Fatalf("addr %d routed to %d then %d, want shard %d", a, o1[a], o2[a], want)
		}
	}
}

// blockingBackend is a test backend whose accesses park on a gate, so
// tests can hold a shard's worker busy and fill its queue at will.
// parked, when set (buffered), is signalled as an access parks: the
// worker has dequeued that request and is inside Access.
type blockingBackend struct {
	n      uint64
	bb     int
	gate   chan struct{}
	parked chan struct{}
}

func (b *blockingBackend) Scheme() config.Scheme { return config.SchemeNonORAM }
func (b *blockingBackend) NumBlocks() uint64     { return b.n }
func (b *blockingBackend) BlockBytes() int       { return b.bb }
func (b *blockingBackend) Leaves() uint64        { return 0 }
func (b *blockingBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	select {
	case b.parked <- struct{}{}:
	default:
	}
	<-b.gate
	return make([]byte, b.bb), 0, nil
}
func (b *blockingBackend) Peek(addr oram.Addr) ([]byte, error) { return make([]byte, b.bb), nil }
func (b *blockingBackend) Invariants() []error                 { return nil }
func (b *blockingBackend) Recover() error                      { return nil }

// TestBackpressure: with the worker parked and the queue full, a submit
// fails fast with ErrOverloaded — it must never block.
func TestBackpressure(t *testing.T) {
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	const depth = 2
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: depth, MaxBatch: 1,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate, parked: parked}, nil
		},
	})

	// One request parks the worker; only once it is inside Access — out
	// of the queue — do `depth` more go in. Submitted all at once, the
	// three could fill the queue before the worker dequeued any: one is
	// rejected and the queue can never reach depth again.
	var wg sync.WaitGroup
	read := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Read(context.Background(), 0)
		}()
	}
	read()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the parking request")
	}
	for i := 0; i < depth; i++ {
		read()
	}
	// Wait until the queue is actually full (worker holds one, queue holds depth).
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].QueueDepth < depth {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		_, err := p.Read(context.Background(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("want ErrOverloaded, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit against a full queue blocked instead of failing fast")
	}
	if p.Stats().Shards[0].Rejected == 0 {
		t.Error("rejected counter did not move")
	}

	close(gate) // release everything so Cleanup's Close can drain
	wg.Wait()
}

// TestContextDeadline covers both cancellation ends: a waiting client
// stops waiting when its context dies, and a request whose context is
// already dead when dequeued is answered without a protocol access.
func TestContextDeadline(t *testing.T) {
	gate := make(chan struct{})
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 8, MaxBatch: 4,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})

	// Park the worker on a background request.
	go p.Read(context.Background(), 0)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the parking request")
		}
		time.Sleep(time.Millisecond)
	}

	// Client-side: a cancelled waiter returns promptly with ctx.Err().
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Read(ctx, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled client kept waiting")
	}

	// Worker-side: that request's context is dead by the time the worker
	// dequeues it, so it must be expired, not executed.
	close(gate)
	deadline = time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead-on-dequeue request was not counted as expired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrain: Close answers every already-accepted request, then
// rejects new ones with ErrPoolClosed.
func TestGracefulDrain(t *testing.T) {
	p, err := New(Options{Shards: 2, NumBlocks: 32, Scheme: config.SchemePSORAM, Levels: 5, Seed: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := p.Read(context.Background(), uint64(i%32))
			errs <- err
		}(i)
	}
	wg.Wait() // every request answered before Close — now drain an idle pool
	if err := p.Close(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pre-close request failed: %v", err)
		}
	}
	if _, err := p.Read(context.Background(), 0); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close read: want ErrPoolClosed, got %v", err)
	}
	if err := p.Close(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("double close: want ErrPoolClosed, got %v", err)
	}
}

// TestDrainCompletesQueuedWork: requests still sitting in the queue when
// Close begins are executed, not dropped.
func TestDrainCompletesQueuedWork(t *testing.T) {
	gate := make(chan struct{})
	p, err := New(Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 8, MaxBatch: 2,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Read(context.Background(), 0)
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests entered the queue", p.Stats().Shards[0].Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- p.Close(context.Background()) }()
	close(gate) // un-park the worker; the drain must now finish
	if err := <-closed; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("queued request dropped during drain: %v", err)
		}
	}
	if got := p.Stats().Shards[0].Completed; got != n {
		t.Fatalf("drain completed %d/%d requests", got, n)
	}
}

// TestBatchCoalescing: with the worker parked, queued requests come out
// in rounds of up to MaxBatch.
func TestBatchCoalescing(t *testing.T) {
	gate := make(chan struct{}, 64)
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: 16, MaxBatch: 4,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})
	// Park the worker on request 0 with 8 more behind it. The worker may
	// coalesce some of them into its first (parked) round, so wait on
	// Submitted — all in the system — rather than on queue depth.
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Read(context.Background(), 0)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].Submitted < 9 {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the shard")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	st := p.Stats().Shards[0]
	if st.BatchMax < 2 {
		t.Errorf("no coalescing observed: max batch %d", st.BatchMax)
	}
	if st.BatchMax > 4 {
		t.Errorf("batch exceeded MaxBatch: %d > 4", st.BatchMax)
	}
}

// TestOptionsValidation covers the constructor's failure modes.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Shards: 4}); err == nil {
		t.Error("NumBlocks=0 accepted")
	}
	if _, err := New(Options{Shards: 8, NumBlocks: 4}); err == nil {
		t.Error("more shards than blocks accepted")
	}
	p := mustPool(t, Options{Shards: 2, NumBlocks: 16, Levels: 5, Seed: 1})
	if _, _, err := p.Access(context.Background(), oram.OpRead, 99, nil); err == nil {
		t.Error("out-of-range access accepted")
	}
	if err := p.ArmCrash(context.Background(), 7, nil); err == nil {
		t.Error("ArmCrash on missing shard accepted")
	}
}

// TestArmCrashNilDisarms: ArmCrash(ctx, s, nil) removes shard s's
// injector, and the shard then serves reads and writes as if it had
// never been armed.
func TestArmCrashNilDisarms(t *testing.T) {
	p := mustPool(t, Options{Shards: 2, NumBlocks: 32, Levels: 5, Seed: 3})
	ctx := context.Background()
	const s = 1 // owns the odd addresses
	var offered atomic.Int64
	if err := p.ArmCrash(ctx, s, func(oracle.CrashSpec) bool {
		offered.Add(1)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(ctx, s, bytes.Repeat([]byte{1}, p.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	if offered.Load() == 0 {
		t.Fatal("the armed injector was never offered a crash point")
	}
	if err := p.ArmCrash(ctx, s, nil); err != nil {
		t.Fatal(err)
	}
	before := offered.Load()
	for i := 0; i < 8; i++ {
		addr := uint64(s + 2*i)
		v := bytes.Repeat([]byte{byte(i + 2)}, p.BlockBytes())
		if err := p.Write(ctx, addr, v); err != nil {
			t.Fatalf("write %d after disarm: %v", addr, err)
		}
		got, err := p.Read(ctx, addr)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("read %d after disarm = %.8q, %v; want %.8q", addr, got, err, v)
		}
	}
	if n := offered.Load(); n != before {
		t.Errorf("the disarmed injector was offered %d more points", n-before)
	}
	if c := p.Stats().Shards[s].Crashes; c != 0 {
		t.Errorf("Crashes = %d, want 0", c)
	}
}

// armCounting is a backend that counts the crash injectors installed on
// it.
type armCounting struct {
	Backend
	arms atomic.Int32
}

func (b *armCounting) Arm(func(oracle.CrashSpec) bool) { b.arms.Add(1) }

// TestArmCrashExpiresWithDeadContext: an ArmCrash whose context died
// while it was queued is answered like any other request — counted
// expired, and the backend never sees the Arm.
func TestArmCrashExpiresWithDeadContext(t *testing.T) {
	gate, parked := make(chan struct{}), make(chan struct{}, 1)
	be := &armCounting{Backend: &blockingBackend{n: 8, bb: 16, gate: gate, parked: parked}}
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, MaxBatch: 1,
		Factory: func(int, uint64) (Backend, error) { return be, nil },
	})
	go p.Read(context.Background(), 0)
	<-parked
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.ArmCrash(ctx, 0, func(oracle.CrashSpec) bool { return false }) }()
	waitFor(t, func() bool { return p.Stats().Shards[0].QueueDepth == 1 }, "ArmCrash never queued")
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ArmCrash = %v, want context.Canceled", err)
	}
	close(gate)
	waitFor(t, func() bool { return p.Stats().Shards[0].Expired == 1 }, "the cancelled ArmCrash was not counted expired")
	if n := be.arms.Load(); n != 0 {
		t.Errorf("backend armed %d times by a cancelled ArmCrash, want 0", n)
	}
}

// closingBackend counts its Close calls.
type closingBackend struct {
	blockingBackend
	closes atomic.Int32
}

func (b *closingBackend) Close() error {
	b.closes.Add(1)
	return nil
}

// TestNewFailureReleasesBuiltShards: when a later shard fails to build,
// New stops the workers of the shards it had already started and closes
// their backends before returning the error.
func TestNewFailureReleasesBuiltShards(t *testing.T) {
	before := runtime.NumGoroutine()
	var built []*closingBackend
	_, err := New(Options{
		Shards: 4, NumBlocks: 32,
		Factory: func(s int, local uint64) (Backend, error) {
			if s == 2 {
				return nil, errors.New("shard 2 refuses to build")
			}
			b := &closingBackend{blockingBackend: blockingBackend{n: local, bb: 16}}
			built = append(built, b)
			return b, nil
		},
	})
	if err == nil {
		t.Fatal("New succeeded with a failing factory")
	}
	if len(built) != 2 {
		t.Fatalf("factory built %d backends before failing, want 2", len(built))
	}
	for i, b := range built {
		if n := b.closes.Load(); n != 1 {
			t.Errorf("backend %d closed %d times, want 1", i, n)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "the failed New left shard workers running")
}

// TestDerivedLevels builds pools with Levels unset: the default factory
// must derive each shard's tree height from its local block count for
// every scheme (oracle.NewTarget sizes the recursive schemes' data WPQ
// from that height).
func TestDerivedLevels(t *testing.T) {
	for _, sc := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		p := mustPool(t, Options{Shards: 4, NumBlocks: 128, Scheme: sc, Seed: 1})
		data := make([]byte, p.BlockBytes())
		copy(data, "derived")
		if err := p.Write(context.Background(), 5, data); err != nil {
			t.Fatalf("%v: write: %v", sc, err)
		}
		got, err := p.Read(context.Background(), 5)
		if err != nil {
			t.Fatalf("%v: read: %v", sc, err)
		}
		if string(got[:7]) != "derived" {
			t.Fatalf("%v: read back %q", sc, got[:7])
		}
	}
}

// coreBackend is a shard over a bare core controller the test can reach
// into.
type coreBackend struct{ ctl *core.Controller }

func (b coreBackend) Scheme() config.Scheme { return b.ctl.Scheme }
func (b coreBackend) NumBlocks() uint64     { return b.ctl.ORAM.NumBlocks() }
func (b coreBackend) BlockBytes() int       { return b.ctl.Cfg.BlockBytes }
func (b coreBackend) Leaves() uint64        { return b.ctl.ORAM.Tree.Leaves() }
func (b coreBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	res, err := b.ctl.Access(op, addr, data)
	return res.Value, res.PathLeaf, err
}
func (b coreBackend) Peek(addr oram.Addr) ([]byte, error) { return b.ctl.Peek(addr) }
func (b coreBackend) Invariants() []error                 { return nil }
func (b coreBackend) Recover() error                      { return b.ctl.Recover() }

// A shard whose seal-version cursor is about to wrap refuses its
// accesses, and the caller can tell why through the pool's wrapping, as
// it can for a stash overflow; the other shards keep serving.
func TestSealVersionsExhaustedThroughPool(t *testing.T) {
	cfg := config.Default()
	var shard0 *core.Controller
	p := mustPool(t, Options{Shards: 2, NumBlocks: 64, Factory: func(s int, local uint64) (Backend, error) {
		ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: local, Levels: 5, Untimed: true})
		if s == 0 {
			shard0 = ctl
		}
		return coreBackend{ctl}, err
	}})
	ctx := context.Background()
	buf := make([]byte, cfg.BlockBytes)
	for addr := uint64(0); addr < 64; addr++ {
		if err := p.Write(ctx, addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Every Write above has been answered, so the worker is parked: its
	// replies order its accesses before this store, the next request's
	// hand-off orders the store before the next access.
	shard0.ORAM.SetVerSeq(math.MaxUint32)
	if _, err := p.Read(ctx, 2); !errors.Is(err, oram.ErrSealVersionsExhausted) {
		t.Fatalf("read on the exhausted shard: %v", err)
	}
	if _, err := p.Read(ctx, 3); err != nil {
		t.Fatalf("read on the other shard: %v", err)
	}
}
