package netserve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gatedServer is gatedPool for tests that need only the address: a
// server whose single shard worker blocks until the returned release
// func is called (safe to call many times; also a cleanup, so teardown
// can't hang on parked workers).
func gatedServer(t *testing.T, maxInFlight int) (string, func()) {
	t.Helper()
	_, _, addr, _, release := gatedPool(t, maxInFlight)
	return addr, release
}

// leakGuard snapshots the goroutine count and asserts (with settling
// retries) that it returns to baseline — the proof that canceled calls
// do not strand reader/writer/waiter goroutines. Call it FIRST in the
// test: cleanups run LIFO, so the check runs after every server/client
// registered later has been torn down.
func leakGuard(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // don't stack a leak report on a real failure
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			now := runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf[:n])
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// TestCancelWhileQueued: with the client's in-flight budget exhausted
// by a parked request, a second call waits for a token — canceling it
// there returns context.Canceled without touching the wire.
func TestCancelWhileQueued(t *testing.T) {
	leakGuard(t)
	addr, release := gatedServer(t, 64)
	c := dialTest(t, addr, ClientOptions{MaxInFlight: 1})

	first := make(chan error, 1)
	go func() {
		_, err := c.Read(context.Background(), 1)
		first <- err
	}()
	// Wait for the first call to own the sole token (it is parked on
	// the gated backend, so it holds it until release).
	waitUntil(t, func() bool { return c.Inflight() == 1 }, "the first call never took the token")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Read(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued call: err = %v, want context.Canceled", err)
	}

	release()
	if err := <-first; err != nil {
		t.Fatalf("parked call failed after release: %v", err)
	}
	c.Close()
}

// TestDeadlineAwaitingReply: a request that made it onto the wire but
// whose reply is parked behind the gated backend times out with
// DeadlineExceeded; the late reply is dropped, not misdelivered, and
// the connection keeps working.
func TestDeadlineAwaitingReply(t *testing.T) {
	leakGuard(t)
	addr, release := gatedServer(t, 64)
	c := dialTest(t, addr, ClientOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Read(ctx, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline honored only after %v", el)
	}

	// Unblock the backend: the orphaned reply arrives for an
	// abandoned id and must be discarded. A fresh call then gets its
	// own answer, not the stale one.
	release()
	if _, err := c.Read(context.Background(), 4); err != nil {
		t.Fatalf("connection unusable after an abandoned reply: %v", err)
	}
	c.Close()
}

// TestCancelAwaitingReplyRace: cancellation racing the reply itself —
// whichever side wins the take, the call returns exactly once, with
// either the value or ctx.Err, and nothing leaks. Loops to let -race
// see both interleavings.
func TestCancelAwaitingReplyRace(t *testing.T) {
	leakGuard(t)
	popts := smallPoolOpts()
	popts.QueueDepth = 1024
	_, _, addr := startTestServer(t, popts, ServerOptions{MaxInFlight: 32})
	c := dialTest(t, addr, ClientOptions{MaxInFlight: 32})
	iters := 400
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// Jittered cancel: sometimes before the write, sometimes
			// mid-await, sometimes after the reply landed.
			if i%3 == 0 {
				runtime.Gosched()
			}
			cancel()
			close(done)
		}()
		_, err := c.Read(ctx, uint64(i%256))
		<-done
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d: err = %v, want nil or context.Canceled", i, err)
		}
		cancel()
	}
	// After all that churn the connection still answers.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("connection broken after cancel churn: %v", err)
	}
	c.Close()
}

// TestCancelManyWaiters: a crowd of calls parked behind the gated
// backend all canceled at once — every one returns ctx.Err promptly and
// the client survives to be closed cleanly.
func TestCancelManyWaiters(t *testing.T) {
	leakGuard(t)
	addr, release := gatedServer(t, 64)
	c := dialTest(t, addr, ClientOptions{MaxInFlight: 64})
	ctx, cancel := context.WithCancel(context.Background())
	const n = 32
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Read(ctx, uint64(i%64))
			errs <- err
		}(i)
	}
	waitUntil(t, func() bool { return c.Inflight() == n }, "the waiters never all got in flight")
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	release()
	c.Close()
}

// TestClientCloseInterruptsCalls: Close while calls are in flight fails
// them all with ErrClientClosed (not a hang, not a panic).
func TestClientCloseInterruptsCalls(t *testing.T) {
	leakGuard(t)
	addr, release := gatedServer(t, 64)
	c, err := Dial(addr, ClientOptions{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Read(context.Background(), uint64(i))
			errs <- err
		}(i)
	}
	waitUntil(t, func() bool { return c.Inflight() == n }, "the calls never all got in flight")
	c.Close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("err = %v, want ErrClientClosed", err)
		}
	}
	// Calls after Close fail fast.
	if _, err := c.Read(context.Background(), 0); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close call: err = %v, want ErrClientClosed", err)
	}
	release()
}
