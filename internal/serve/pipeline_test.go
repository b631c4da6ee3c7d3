package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/rng"
)

// countingBackend is a deterministic fake store for the read-combining
// tests: it keeps a value map, counts physical accesses per address, and
// parks every access on a gate so a test can build up a coalesced batch
// behind a parked worker. crashOnce, when armed for an address, makes
// the next physical access to it die with oracle.ErrCrashed.
type countingBackend struct {
	mu        sync.Mutex
	n         uint64
	bb        int
	gate      chan struct{}
	values    map[oram.Addr][]byte
	accesses  map[oram.Addr]int
	crashOnce map[oram.Addr]bool
}

func newCountingBackend(n uint64, bb int, gate chan struct{}) *countingBackend {
	return &countingBackend{
		n: n, bb: bb, gate: gate,
		values:    make(map[oram.Addr][]byte),
		accesses:  make(map[oram.Addr]int),
		crashOnce: make(map[oram.Addr]bool),
	}
}

func (b *countingBackend) Scheme() config.Scheme { return config.SchemeNonORAM }
func (b *countingBackend) NumBlocks() uint64     { return b.n }
func (b *countingBackend) BlockBytes() int       { return b.bb }
func (b *countingBackend) Leaves() uint64        { return 0 }

func (b *countingBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	<-b.gate
	b.mu.Lock()
	defer b.mu.Unlock()
	b.accesses[addr]++
	if b.crashOnce[addr] {
		b.crashOnce[addr] = false
		return nil, 0, oracle.ErrCrashed
	}
	if op == oram.OpWrite {
		b.values[addr] = append([]byte(nil), data...)
	}
	v := b.values[addr]
	if v == nil {
		v = make([]byte, b.bb)
	}
	return append([]byte(nil), v...), oram.Leaf(addr), nil
}

func (b *countingBackend) Peek(addr oram.Addr) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.values[addr]
	if v == nil {
		v = make([]byte, b.bb)
	}
	return append([]byte(nil), v...), nil
}
func (b *countingBackend) Invariants() []error { return nil }
func (b *countingBackend) Recover() error      { return nil }

func (b *countingBackend) count(addr oram.Addr) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.accesses[addr]
}

// buildParkedBatch parks sh 0's worker on a throwaway read of addr 99,
// then queues ops one by one (waiting for each to land in the queue so
// arrival order is deterministic) and returns the reply collectors.
// Releasing the gate lets the worker finish the parked round and then
// coalesce every queued op into one batch.
type batchOp struct {
	op   oram.Op
	addr uint64
	data []byte
}

func buildParkedBatch(t *testing.T, p *Pool, gate chan struct{}, ops []batchOp) (release func(), results []chan []byte) {
	t.Helper()
	parked := make(chan struct{})
	go func() {
		p.Read(context.Background(), 99)
		close(parked)
	}()
	// Parked means: the worker dequeued the throwaway read (queue empty
	// again) and is blocked inside the gated access — everything queued
	// from here on coalesces into the worker's next round.
	waitFor(t, func() bool {
		st := p.Stats().Shards[0]
		return st.Submitted >= 1 && st.QueueDepth == 0
	}, "worker never parked")

	results = make([]chan []byte, len(ops))
	for i, op := range ops {
		i, op := i, op
		results[i] = make(chan []byte, 1)
		go func() {
			var v []byte
			var err error
			if op.op == oram.OpWrite {
				_, _, err = p.Access(context.Background(), oram.OpWrite, op.addr, op.data)
				v = op.data
			} else {
				v, err = p.Read(context.Background(), op.addr)
			}
			if err != nil && !errors.Is(err, ErrInterrupted) {
				v = []byte(fmt.Sprintf("error: %v", err))
			}
			results[i] <- v
		}()
		want := i + 1
		waitFor(t, func() bool { return p.Stats().Shards[0].QueueDepth >= want },
			fmt.Sprintf("op %d never queued", i))
	}
	return func() { close(gate); <-parked }, results
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadCombining: duplicate-address reads in one coalesced round are
// served from the leader's captured outcome — one physical access per
// distinct address, with the write's value fanned out to both readers.
func TestReadCombining(t *testing.T) {
	gate := make(chan struct{})
	be := newCountingBackend(128, 16, gate)
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 128, QueueDepth: 16, MaxBatch: 8,
		Factory: func(int, uint64) (Backend, error) { return be, nil },
	})
	v1 := bytes.Repeat([]byte{0xAB}, 16)
	release, results := buildParkedBatch(t, p, gate, []batchOp{
		{oram.OpWrite, 5, v1},
		{oram.OpRead, 5, nil},
		{oram.OpRead, 5, nil},
		{oram.OpRead, 3, nil},
	})
	release()
	got := make([][]byte, len(results))
	for i, ch := range results {
		got[i] = <-ch
	}
	if !bytes.Equal(got[1], v1) || !bytes.Equal(got[2], v1) {
		t.Errorf("combined reads diverged from the round's write: %q / %q", got[1], got[2])
	}
	if !bytes.Equal(got[3], make([]byte, 16)) {
		t.Errorf("read of untouched addr 3: got %q", got[3])
	}
	if n := be.count(5); n != 1 {
		t.Errorf("addr 5 saw %d physical accesses, want 1 (write leads, reads combine)", n)
	}
	if n := be.count(3); n != 1 {
		t.Errorf("addr 3 saw %d physical accesses, want 1", n)
	}
	if c := p.Stats().Shards[0].Combined; c != 2 {
		t.Errorf("Stats.Combined = %d, want 2", c)
	}
}

// TestReadCombiningLeaderCrash: when the leader access dies in a
// simulated power failure, its followers must not be served from a
// nonexistent capture — they fall back to physical accesses, so the
// crash window stays exactly the protocol's either-k-or-k+1 contract.
func TestReadCombiningLeaderCrash(t *testing.T) {
	gate := make(chan struct{})
	be := newCountingBackend(128, 16, gate)
	be.crashOnce[5] = true
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 128, QueueDepth: 16, MaxBatch: 8,
		Factory: func(int, uint64) (Backend, error) { return be, nil },
	})
	v1 := bytes.Repeat([]byte{0xCD}, 16)
	release, results := buildParkedBatch(t, p, gate, []batchOp{
		{oram.OpWrite, 5, v1}, // dies with ErrCrashed
		{oram.OpRead, 5, nil},
		{oram.OpRead, 5, nil},
	})
	release()
	for i, ch := range results {
		v := <-ch
		if bytes.HasPrefix(v, []byte("error:")) {
			t.Errorf("op %d failed: %s", i, v)
		}
	}
	// The write crashed before persisting, so the fallback reads see
	// zeroes: 1 crashed write + 2 physical follower reads.
	if n := be.count(5); n != 3 {
		t.Errorf("addr 5 saw %d physical accesses, want 3 (crashed leader + 2 fallbacks)", n)
	}
	if c := p.Stats().Shards[0].Combined; c != 0 {
		t.Errorf("Stats.Combined = %d, want 0 after leader crash", c)
	}
}

// TestWritesNeverCombine: a write following a write to the same address
// must still run physically — combining is read-only.
func TestWritesNeverCombine(t *testing.T) {
	gate := make(chan struct{})
	be := newCountingBackend(128, 16, gate)
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 128, QueueDepth: 16, MaxBatch: 8,
		Factory: func(int, uint64) (Backend, error) { return be, nil },
	})
	va := bytes.Repeat([]byte{0x01}, 16)
	vb := bytes.Repeat([]byte{0x02}, 16)
	release, results := buildParkedBatch(t, p, gate, []batchOp{
		{oram.OpWrite, 7, va},
		{oram.OpWrite, 7, vb},
		{oram.OpRead, 7, nil},
	})
	release()
	got := make([][]byte, len(results))
	for i, ch := range results {
		got[i] = <-ch
	}
	if n := be.count(7); n != 2 {
		t.Errorf("addr 7 saw %d physical accesses, want 2 (both writes)", n)
	}
	if v, _ := be.Peek(7); !bytes.Equal(v, vb) {
		t.Errorf("final value %q, want the second write's", v)
	}
	// The read combines with the SECOND write (latest preceding access).
	if !bytes.Equal(got[2], vb) {
		t.Errorf("read combined with the wrong write: got %q want %q", got[2], vb)
	}
	if c := p.Stats().Shards[0].Combined; c != 1 {
		t.Errorf("Stats.Combined = %d, want 1", c)
	}
}

// TestDepthOneByteIdenticalToSerial is the degenerate-config acceptance
// check: a Serial pool on a single shard must be byte-identical — values AND
// leaves — to a bare serial controller built with the pool's own
// derived seed, under GOMAXPROCS(1).
func TestDepthOneByteIdenticalToSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const blocks, nOps = 128, 400
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 6, Seed: 11,
		Serial: true,
	})
	ref, err := oracle.NewTarget(oracle.Params{
		Scheme:    config.SchemePSORAM,
		NumBlocks: blocks,
		Levels:    6,
		Seed:      rng.DeriveSeed(11, 0x5e4e, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	bb := p.BlockBytes()
	ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, blocks, bb, nOps, 42)
	for i, op := range ops {
		kind, data := oram.OpRead, []byte(nil)
		if op.Write {
			kind, data = oram.OpWrite, op.Data
		}
		gotV, gotL, err := p.Access(context.Background(), kind, uint64(op.Addr), data)
		if err != nil {
			t.Fatalf("pool op %d: %v", i, err)
		}
		wantV, wantL, err := ref.Access(kind, oram.Addr(op.Addr), data)
		if err != nil {
			t.Fatalf("ref op %d: %v", i, err)
		}
		if !bytes.Equal(gotV, wantV) {
			t.Fatalf("op %d addr %d: value diverged from serial reference", i, op.Addr)
		}
		if gotL != wantL {
			t.Fatalf("op %d addr %d: leaf diverged: pool %d serial %d — a Serial pool is not the serial protocol", i, op.Addr, gotL, wantL)
		}
	}
	if c := p.Stats().Shards[0].Combined; c != 0 {
		t.Errorf("Serial pool combined %d reads; combining must be fully disabled", c)
	}
}

// TestPipelineMatrixOracle sweeps {serial, combining} through the full
// differential oracle: every cell must pass value checks, deep sweeps,
// and structural invariants.
func TestPipelineMatrixOracle(t *testing.T) {
	const blocks, nOps = 256, 96
	bb := config.Default().BlockBytes
	for _, serial := range []bool{true, false} {
		name := "combining"
		if serial {
			name = "serial"
		}
		t.Run(name, func(t *testing.T) {
			p := mustPool(t, Options{
				Shards: 4, NumBlocks: blocks, Scheme: config.SchemePSORAM, Levels: 6, Seed: 1,
				Serial: serial,
			})
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

// TestPipelinedBackpressure: backpressure semantics survive pipelining —
// a full queue still fails fast with ErrOverloaded.
func TestPipelinedBackpressure(t *testing.T) {
	gate := make(chan struct{})
	const depth = 2
	p := mustPool(t, Options{
		Shards: 1, NumBlocks: 8, QueueDepth: depth, MaxBatch: 1,
		Factory: func(int, uint64) (Backend, error) {
			return &blockingBackend{n: 8, bb: 16, gate: gate}, nil
		},
	})
	// Fill the queue by topping up: a filler can lose the submit race and
	// be rejected outright (leaving a free slot), so keep spawning until
	// the queue actually reports full behind the parked worker.
	var wg sync.WaitGroup
	fillDeadline := time.Now().Add(5 * time.Second)
	for p.Stats().Shards[0].QueueDepth < depth {
		if time.Now().After(fillDeadline) {
			t.Fatal("queue never filled")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Read(context.Background(), 0)
		}()
		time.Sleep(time.Millisecond)
	}
	// The worker may dequeue between the fill check and the probe (one of
	// the fillers can even have been rejected in the submit race), opening
	// a queue slot — so probe with short deadlines until one submit is
	// turned away. An accepted probe parks in the queue and is expired at
	// dequeue; it must never block past its own deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, err := p.Read(ctx, 0)
		cancel()
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("probe read: want ErrOverloaded or DeadlineExceeded, got %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("full pipelined queue never rejected a submit with ErrOverloaded")
		}
	}
	if p.Stats().Shards[0].Rejected == 0 {
		t.Error("rejected counter did not move")
	}
	close(gate)
	wg.Wait()
}

// TestPipelinedCancellation: a request cancelled while queued behind a
// pipelined round is answered with its context error (never silently
// combined), and the pool drains without leaking goroutines.
func TestPipelinedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		gate := make(chan struct{})
		be := newCountingBackend(128, 16, gate)
		p := mustPool(t, Options{
			Shards: 1, NumBlocks: 128, QueueDepth: 16, MaxBatch: 8,
			Factory: func(int, uint64) (Backend, error) { return be, nil },
		})
		// Park the worker, then queue a write and a same-address read whose
		// context dies before the worker reaches it: the read must get its
		// context error even though a combinable capture exists.
		go p.Read(context.Background(), 99)
		waitFor(t, func() bool { return p.Stats().Shards[0].Submitted >= 1 }, "worker never parked")
		go p.Access(context.Background(), oram.OpWrite, 5, bytes.Repeat([]byte{1}, 16))
		waitFor(t, func() bool { return p.Stats().Shards[0].QueueDepth >= 1 }, "write never queued")
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := p.Read(ctx, 5)
			errc <- err
		}()
		waitFor(t, func() bool { return p.Stats().Shards[0].QueueDepth >= 2 }, "read never queued")
		cancel()
		close(gate)
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued read: want context.Canceled, got %v", err)
		}
		waitFor(t, func() bool { return p.Stats().Shards[0].Expired >= 1 }, "cancelled read not counted expired")
		ctxc, cancelc := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelc()
		if err := p.Close(ctxc); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}()
	// Goroutine-leak guard: workers and client goroutines must all be
	// gone once the pool is closed.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStageHistogramsPopulated: a real-controller pool must surface
// per-stage latency histograms through Stats with the protocol's stage
// names, and the StageTable view must render them.
func TestStageHistogramsPopulated(t *testing.T) {
	p := mustPool(t, Options{Shards: 2, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 1})
	buf := make([]byte, p.BlockBytes())
	for i := 0; i < 64; i++ {
		if _, _, err := p.Access(context.Background(), oram.OpWrite, uint64(i%64), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	want := []string{"load", "crypto", "evict", "seal", "persist"}
	for s, sh := range st.Shards {
		if len(sh.Stages) != len(want) {
			t.Fatalf("shard %d: %d stage rows, want %d", s, len(sh.Stages), len(want))
		}
		for i, stage := range sh.Stages {
			if stage.Name != want[i] {
				t.Errorf("shard %d stage %d named %q, want %q", s, i, stage.Name, want[i])
			}
		}
	}
	// Across all shards and stages, time must actually accumulate.
	var total float64
	for _, sh := range st.Shards {
		for _, stage := range sh.Stages {
			total += stage.MeanNs
		}
	}
	if total == 0 {
		t.Error("stage histograms observed nothing across 64 accesses")
	}
	// An access's service time is the sum of its stage times, in wall
	// nanoseconds; the mean is additive, so the two must agree.
	for s, sh := range st.Shards {
		var stages float64
		for _, stage := range sh.Stages {
			stages += stage.MeanNs
		}
		if sh.ServiceMeanNs == 0 || sh.ServiceP50Ns == 0 || sh.ServiceP99Ns < sh.ServiceP50Ns || sh.ServiceMaxNs < sh.ServiceP99Ns {
			t.Errorf("shard %d service time not populated: %+v", s, sh)
		}
		// A stage that took 0 ns in some access is left out of its
		// histogram, which can only raise that stage's mean.
		if sh.ServiceMeanNs > stages*1.001 {
			t.Errorf("shard %d: mean service time %.0f ns exceeds the summed stage means %.0f ns", s, sh.ServiceMeanNs, stages)
		}
	}
	if st.StageTable() == nil {
		t.Error("StageTable returned nil for a pool with stage data")
	}
}
