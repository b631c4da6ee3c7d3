package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
)

// goCall is one Pool.Go submission under test: it records every
// completion, so a second delivery is caught as well as a missing one,
// and whether the completion ran inline (before Go returned).
type goCall struct {
	calls    atomic.Int32
	returned atomic.Bool // set once Go has returned
	inline   bool        // the (first) completion ran before that
	res      chan goResult
}

type goResult struct {
	v   []byte
	err error
}

func issueGo(p *Pool, ctx context.Context, op oram.Op, addr uint64, data []byte) *goCall {
	c := &goCall{res: make(chan goResult, 4)}
	p.Go(ctx, op, addr, data, func(v []byte, err error) {
		if c.calls.Add(1) == 1 {
			c.inline = !c.returned.Load()
		}
		c.res <- goResult{v, err}
	})
	c.returned.Store(true)
	return c
}

// wait returns the completion's arguments.
func (c *goCall) wait(t *testing.T) ([]byte, error) {
	t.Helper()
	select {
	case r := <-c.res:
		return r.v, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Go's completion never ran")
		return nil, nil
	}
}

// once asserts, after the pool has quiesced, that done ran exactly once.
func (c *goCall) once(t *testing.T) {
	t.Helper()
	if n := c.calls.Load(); n != 1 {
		t.Errorf("done ran %d times, want exactly once", n)
	}
}

// goAccess is Access built from Go: submit, then wait for the completion.
func goAccess(ctx context.Context, p *Pool, op oram.Op, addr uint64, data []byte) ([]byte, error) {
	res := make(chan goResult, 1)
	p.Go(ctx, op, addr, data, func(v []byte, err error) { res <- goResult{v, err} })
	r := <-res
	return r.v, r.err
}

// ticketBackend is a group-committing test backend: successful accesses
// are acked only when the test releases the held commit tickets, from
// the test's goroutine — standing in for the persist worker — with
// whatever barrier outcome it wants.
type ticketBackend struct {
	*gatedBackend
	mu   sync.Mutex
	held []func(error)
}

func (b *ticketBackend) OnCommit(fn func(error)) {
	b.mu.Lock()
	b.held = append(b.held, fn)
	b.mu.Unlock()
}
func (b *ticketBackend) FlushCommits() error { b.release(nil); return nil }
func (b *ticketBackend) CommitPending() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.held) > 0
}
func (b *ticketBackend) SetCommitObserver(func(int, int64)) {}

func (b *ticketBackend) release(err error) {
	b.mu.Lock()
	held := b.held
	b.held = nil
	b.mu.Unlock()
	for _, fn := range held {
		fn(err)
	}
}

// TestGoCallsDoneExactlyOnce walks every way a Go submission can end
// and checks the completion contract on each: exactly one call, inline
// when the request was never enqueued, with the error Access would have
// returned.
func TestGoCallsDoneExactlyOnce(t *testing.T) {
	ctx := context.Background()

	t.Run("served", func(t *testing.T) {
		p := mustPool(t, Options{Shards: 2, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 4})
		v := bytes.Repeat([]byte{0xC3}, p.BlockBytes())
		w := issueGo(p, ctx, oram.OpWrite, 9, v)
		if _, err := w.wait(t); err != nil {
			t.Fatal(err)
		}
		r := issueGo(p, ctx, oram.OpRead, 9, nil)
		got, err := r.wait(t)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("read back %.8q, %v; want %.8q", got, err, v)
		}
		w.once(t)
		r.once(t)
		if sub, _, done, _ := p.Stats().Totals(); sub != 2 || done != 2 {
			t.Errorf("submitted=%d completed=%d, want 2 and 2", sub, done)
		}
	})

	t.Run("out of range", func(t *testing.T) {
		p := mustPool(t, Options{Shards: 2, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 4})
		c := issueGo(p, ctx, oram.OpRead, 64, nil)
		if _, err := c.wait(t); err == nil {
			t.Fatal("addr == NumBlocks accepted")
		}
		if !c.inline {
			t.Error("a request that was never enqueued must complete inline")
		}
		c.once(t)
	})

	t.Run("overloaded", func(t *testing.T) {
		gate, parked := make(chan struct{}), make(chan struct{}, 1)
		const depth = 2
		p := mustPool(t, Options{
			Shards: 1, NumBlocks: 8, QueueDepth: depth, MaxBatch: 1,
			Factory: func(int, uint64) (Backend, error) {
				return &blockingBackend{n: 8, bb: 16, gate: gate, parked: parked}, nil
			},
		})
		// One request parks the worker inside Access; depth more fill the
		// queue behind it (Go returns once they are enqueued).
		calls := []*goCall{issueGo(p, ctx, oram.OpRead, 0, nil)}
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never picked up the parking request")
		}
		for i := 0; i < depth; i++ {
			calls = append(calls, issueGo(p, ctx, oram.OpRead, 0, nil))
		}
		shed := issueGo(p, ctx, oram.OpRead, 0, nil)
		if _, err := shed.wait(t); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
		}
		if !shed.inline {
			t.Error("ErrOverloaded must complete inline")
		}
		close(gate)
		for i, c := range calls {
			if _, err := c.wait(t); err != nil {
				t.Fatalf("queued request %d: %v", i, err)
			}
		}
		for _, c := range append(calls, shed) {
			c.once(t)
		}
		if st := p.Stats().Shards[0]; st.Rejected != 1 || st.Submitted != depth+1 {
			t.Errorf("rejected=%d submitted=%d, want 1 and %d", st.Rejected, st.Submitted, depth+1)
		}
	})

	t.Run("pool closed", func(t *testing.T) {
		p := mustPool(t, Options{Shards: 2, NumBlocks: 64, Scheme: config.SchemePSORAM, Levels: 5, Seed: 4})
		if err := p.Close(ctx); err != nil {
			t.Fatal(err)
		}
		c := issueGo(p, ctx, oram.OpRead, 1, nil)
		if _, err := c.wait(t); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("err = %v, want ErrPoolClosed", err)
		}
		if !c.inline {
			t.Error("ErrPoolClosed must complete inline")
		}
		c.once(t)
	})

	t.Run("context dead at dequeue", func(t *testing.T) {
		gate, parked := make(chan struct{}), make(chan struct{}, 1)
		p := mustPool(t, Options{
			Shards: 1, NumBlocks: 8, QueueDepth: 8, MaxBatch: 1,
			Factory: func(int, uint64) (Backend, error) {
				return &blockingBackend{n: 8, bb: 16, gate: gate, parked: parked}, nil
			},
		})
		parker := issueGo(p, ctx, oram.OpRead, 0, nil)
		<-parked
		cctx, cancel := context.WithCancel(ctx)
		c := issueGo(p, cctx, oram.OpRead, 1, nil) // enqueued with a live context
		cancel()
		if n := c.calls.Load(); n != 0 {
			t.Fatalf("done ran %d times while the request was still queued", n)
		}
		close(gate)
		if _, err := c.wait(t); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if _, err := parker.wait(t); err != nil {
			t.Fatal(err)
		}
		c.once(t)
		parker.once(t)
		if st := p.Stats().Shards[0]; st.Expired != 1 || st.Completed != 1 {
			t.Errorf("expired=%d completed=%d, want 1 and 1", st.Expired, st.Completed)
		}
	})

	t.Run("injected crash", func(t *testing.T) {
		gate := make(chan struct{})
		close(gate)
		b := newCountingBackend(8, 16, gate)
		b.crashOnce[3] = true
		p := mustPool(t, Options{
			Shards: 1, NumBlocks: 8,
			Factory: func(int, uint64) (Backend, error) { return b, nil },
		})
		c := issueGo(p, ctx, oram.OpRead, 3, nil)
		if _, err := c.wait(t); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("err = %v, want ErrInterrupted", err)
		}
		again := issueGo(p, ctx, oram.OpRead, 3, nil)
		if _, err := again.wait(t); err != nil {
			t.Fatalf("re-issue after recovery: %v", err)
		}
		c.once(t)
		again.once(t)
		if st := p.Stats().Shards[0]; st.Crashes != 1 || st.Recoveries != 1 {
			t.Errorf("crashes=%d recoveries=%d, want 1 and 1", st.Crashes, st.Recoveries)
		}
	})

	t.Run("group commit", func(t *testing.T) {
		b := &ticketBackend{gatedBackend: newGatedBackend(8, 16, nil)}
		p := mustPool(t, Options{
			Shards: 1, NumBlocks: 8,
			// The idle flush never fires: only the test releases tickets.
			GroupCommitOps: 4, GroupCommitDelay: time.Hour,
			Factory: func(int, uint64) (Backend, error) { return b, nil },
		})
		errDisk := errors.New("disk gone")
		for i, barrier := range []error{nil, errDisk} {
			v := bytes.Repeat([]byte{byte(0x10 + i)}, 16)
			c := issueGo(p, ctx, oram.OpWrite, uint64(i), v)
			waitFor(t, func() bool { return p.Stats().Shards[0].Completed == uint64(i+1) },
				"the worker never ran the access")
			if n := c.calls.Load(); n != 0 {
				t.Fatalf("barrier %v: done ran before the commit group was released", barrier)
			}
			b.release(barrier) // the persist worker's side
			if _, err := c.wait(t); !errors.Is(err, barrier) {
				t.Fatalf("err = %v, want %v", err, barrier)
			}
			c.once(t)
		}
	})

	// Issued while a reshard is migrating: stripe 0 has moved to the new
	// shard set (writes to it are mirrored into its old shard), stripe 1
	// is frozen mid-extraction. The acked write must be readable whether
	// the reshard then commits or aborts.
	for _, outcome := range []string{"commit", "abort"} {
		t.Run("mid-reshard/"+outcome, func(t *testing.T) {
			const blocks = 16
			gate := make(chan struct{})
			var built atomic.Int32
			p := mustPool(t, Options{
				Shards: 2, NumBlocks: blocks, QueueDepth: 8, MaxBatch: 1,
				Factory: func(s int, local uint64) (Backend, error) {
					var g chan struct{} // only the two original shards gate their Peek
					if built.Add(1) <= 2 {
						g = gate
					}
					return newGatedBackend(local, 16, g), nil
				},
			})
			rctx, cancel := context.WithCancel(ctx)
			defer cancel()
			resharded := make(chan error, 1)
			go func() { resharded <- p.Reshard(rctx, 4) }()
			// Feed stripe 0's extraction its eight Peeks; stripe 1's then
			// parks on the gate with the stripe frozen.
			for i := 0; i < blocks/2; i++ {
				gate <- struct{}{}
			}
			waitFor(t, func() bool {
				_, _, err := p.Access(ctx, oram.OpRead, 1, nil)
				return errors.Is(err, ErrResharding)
			}, "stripe 1 never froze")

			frozen := issueGo(p, ctx, oram.OpRead, 1, nil)
			if _, err := frozen.wait(t); !errors.Is(err, ErrResharding) {
				t.Fatalf("frozen stripe: err = %v, want ErrResharding", err)
			}
			if !frozen.inline {
				t.Error("ErrResharding must complete inline")
			}
			v := bytes.Repeat([]byte{0x77}, 16)
			w := issueGo(p, ctx, oram.OpWrite, 2, v) // stripe 0: new set + mirror
			if _, err := w.wait(t); err != nil {
				t.Fatalf("write to a migrated stripe: %v", err)
			}

			var err error
			if outcome == "abort" {
				// Abort while stripe 1's extraction is still parked, then
				// let the parked worker go.
				cancel()
				err = <-resharded
				close(gate)
			} else {
				close(gate)
				err = <-resharded
			}
			if wantShards := map[string]int{"commit": 4, "abort": 2}[outcome]; p.Shards() != wantShards {
				t.Fatalf("Shards() = %d after %s (reshard err %v), want %d", p.Shards(), outcome, err, wantShards)
			}
			got, rerr := accessRetry(ctx, p, oram.OpRead, 2, nil)
			if rerr != nil || !bytes.Equal(got, v) {
				t.Fatalf("acked write after %s: %.8q, %v; want %.8q", outcome, got, rerr, v)
			}
			frozen.once(t)
			w.once(t)
		})
	}
}
