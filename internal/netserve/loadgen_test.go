package netserve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/serve"
)

// scriptedTarget is an in-memory block store that fails its first calls
// with the errors in inject, one per call, and then serves; failWrite is
// returned, once, by the next write after the script has run out.
type scriptedTarget struct {
	mu        sync.Mutex
	blocks    map[uint64][]byte
	bb        int
	inject    []error
	failWrite error
}

func (s *scriptedTarget) next(write bool) error {
	if len(s.inject) > 0 {
		err := s.inject[0]
		s.inject = s.inject[1:]
		return err
	}
	if write && s.failWrite != nil {
		err := s.failWrite
		s.failWrite = nil
		return err
	}
	return nil
}

func (s *scriptedTarget) Read(_ context.Context, addr uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.next(false); err != nil {
		return nil, err
	}
	if v, ok := s.blocks[addr]; ok {
		return append([]byte(nil), v...), nil
	}
	return make([]byte, s.bb), nil
}

func (s *scriptedTarget) Write(_ context.Context, addr uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.next(true); err != nil {
		return err
	}
	s.blocks[addr] = append([]byte(nil), data...)
	return nil
}

// TestLoadRetryContract drives the checked generator against a target
// that answers every retryable sentinel, bare and as a decoded wire
// status with a RetryAfter hint, before it serves: each one is retried
// and counted, none is an error. A sentinel the classifier does not
// name is counted once and the request is not re-issued.
func TestLoadRetryContract(t *testing.T) {
	const k = 3
	info := Info{NumBlocks: 32, BlockBytes: 64}
	opts := LoadOptions{Conns: 2, Rate: 4000, Duration: 100 * time.Millisecond, Check: true}

	t.Run("retryable", func(t *testing.T) {
		var inject []error
		for i := 0; i < k; i++ {
			inject = append(inject,
				serve.ErrResharding,
				&StatusError{Code: StatusResharding, RetryAfter: 50 * time.Microsecond},
				serve.ErrOverloaded,
				&StatusError{Code: StatusOverloaded, RetryAfter: 50 * time.Microsecond},
				serve.ErrInterrupted,
				&StatusError{Code: StatusInterrupted})
		}
		tgt := &scriptedTarget{blocks: map[uint64][]byte{}, bb: int(info.BlockBytes), inject: inject}
		rep, err := RunLoad(context.Background(), []Target{tgt}, info, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.CheckFail != 0 {
			t.Errorf("errors=%d check failures=%d, want 0 and 0", rep.Errors, rep.CheckFail)
		}
		if rep.Backoff != 4*k || rep.Interrupt != 2*k {
			t.Errorf("backoff=%d interrupt=%d, want %d and %d", rep.Backoff, rep.Interrupt, 4*k, 2*k)
		}
		if rep.Completed == 0 {
			t.Error("no request completed")
		}
	})

	t.Run("not retryable", func(t *testing.T) {
		boom := errors.New("backend on fire")
		tgt := &scriptedTarget{blocks: map[uint64][]byte{}, bb: int(info.BlockBytes), failWrite: boom}
		rep, err := RunLoad(context.Background(), []Target{tgt}, info, opts)
		if err == nil {
			t.Error("RunLoad returned no error for a run that saw one")
		}
		// Retried, the write would have succeeded and left no trace.
		if rep.Errors != 1 || rep.CheckFail != 0 || rep.Backoff != 0 || rep.Interrupt != 0 {
			t.Errorf("errors=%d check failures=%d backoff=%d interrupt=%d, want 1, 0, 0, 0",
				rep.Errors, rep.CheckFail, rep.Backoff, rep.Interrupt)
		}
	})
}

// TestLoadCheckedAcrossReshardAndCrashes is the CLI smoke as a test: the
// checked generator drives an in-process pool while it re-stripes 4 -> 6
// halfway through and a crash injector fires at every Nth protocol
// point. Every value must match the reference, no request may fail, and
// the pool must come out structurally clean.
func TestLoadCheckedAcrossReshardAndCrashes(t *testing.T) {
	duration := 2 * time.Second
	if testing.Short() {
		duration = 500 * time.Millisecond
	}
	pool, err := serve.New(smallPoolOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer pool.Close(ctx)

	var points atomic.Uint64
	for s := 0; s < pool.Shards(); s++ {
		if err := pool.ArmCrash(ctx, s, func(oracle.CrashSpec) bool { return points.Add(1)%200 == 0 }); err != nil {
			t.Fatal(err)
		}
	}
	resharded := make(chan error, 1)
	timer := time.AfterFunc(duration/2, func() { resharded <- pool.Reshard(ctx, 6) })
	defer timer.Stop()

	info := Info{NumBlocks: pool.NumBlocks(), BlockBytes: uint32(pool.BlockBytes())}
	rep, err := RunLoad(ctx, []Target{pool}, info,
		LoadOptions{Conns: 4, Rate: 3000, Duration: duration, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-resharded; err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if rep.Errors != 0 || rep.CheckFail != 0 {
		t.Errorf("errors=%d check failures=%d, want 0 and 0", rep.Errors, rep.CheckFail)
	}
	if pool.Shards() != 6 {
		t.Errorf("pool has %d shards after the run, want 6", pool.Shards())
	}
	if rep.Interrupt == 0 {
		t.Error("no request was interrupted: the crash injector never fired")
	}
	for s := 0; s < pool.Shards(); s++ {
		if err := pool.ArmCrash(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range pool.Invariants(ctx) {
		t.Error(err)
	}
	t.Logf("%d completed, %d backoff retries, %d interrupts", rep.Completed, rep.Backoff, rep.Interrupt)
}
