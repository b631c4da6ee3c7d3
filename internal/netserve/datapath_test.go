package netserve

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/serve"
)

// gatedPool builds a server over one shard whose accesses each wait for
// a tick on the returned gate; release (idempotent, also a cleanup)
// closes the gate so everything parked drains.
func gatedPool(t *testing.T, maxInFlight int) (pool *serve.Pool, srv *Server, addr string, gate chan struct{}, release func()) {
	t.Helper()
	gate = make(chan struct{})
	pool, srv, addr = startTestServer(t, serve.Options{
		Shards:     1,
		NumBlocks:  64,
		QueueDepth: 64,
		MaxBatch:   1,
		Factory:    slowFactory(0, gate),
	}, ServerOptions{MaxInFlight: maxInFlight})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // LIFO: before the server teardown registered above
	return pool, srv, addr, gate, release
}

// readFrames encodes n read requests with ids from first.
func readFrames(first, n int) []byte {
	var buf []byte
	for i := first; i < first+n; i++ {
		buf = AppendFrame(buf, Frame{Type: TRead, ID: uint64(i), Payload: appendAddr(nil, uint64(i%64))})
	}
	return buf
}

// TestNetWriterDeathReturnsBudget kills the connection's writer in the
// middle of a burst: the client resets the connection with a full
// pipeline parked in the pool, and the first reply's write fails. Every
// budget unit must come back (the connection cannot wind down
// otherwise), the requests still queued must be abandoned through the
// connection context rather than run, and nothing may leak.
func TestNetWriterDeathReturnsBudget(t *testing.T) {
	leakGuard(t)
	const burst = 16
	pool, srv, addr, gate, release := gatedPool(t, burst)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(readFrames(0, burst)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return pool.Stats().Shards[0].Submitted == burst },
		"the burst never reached the pool")
	sc := soleConn(t, srv)

	// RST, not FIN: the server's next write to this socket fails.
	raw.(*net.TCPConn).SetLinger(0)
	raw.Close()
	// Let accesses through one at a time until a reply's write has failed.
	ticks := 0
	waitUntil(t, func() bool {
		if _, dead := sc.pendingState(); dead {
			return true
		}
		select {
		case gate <- struct{}{}:
			ticks++
		default:
		}
		return false
	}, "the writer survived writing to a reset connection")
	release()

	waitUntil(t, func() bool { return srv.Stats().Conns == 0 },
		"the connection never wound down: a budget unit did not come back")
	st := pool.Stats().Shards[0]
	if st.Completed+st.Expired != burst {
		t.Errorf("completed=%d expired=%d, want %d between them", st.Completed, st.Expired, burst)
	}
	// Besides the ticked accesses, the worker may have dequeued one more
	// request before the context died; the rest must have been abandoned.
	if min := uint64(burst - ticks - 1); st.Expired < min {
		t.Errorf("only %d of the queued requests were abandoned (%d accesses ticked through), want at least %d",
			st.Expired, ticks, min)
	}
}

// TestNetNoGoroutinePerRequest: in-flight data requests are envelopes
// in the pool's queues, not goroutines on the connection.
func TestNetNoGoroutinePerRequest(t *testing.T) {
	pool, srv, addr, _, release := gatedPool(t, 64)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	soleConn(t, srv)
	submitted := func(n uint64) func() bool {
		return func() bool { return pool.Stats().Shards[0].Submitted == n }
	}
	// One request in flight: reader and writer are up, the shard worker
	// is parked inside the access.
	if _, err := raw.Write(readFrames(0, 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, submitted(1), "the first request never reached the pool")
	before := runtime.NumGoroutine()
	if _, err := raw.Write(readFrames(1, 47)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, submitted(48), "the pipelined requests never reached the pool")
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines with 1 request in flight, %d with 48", before, after)
	}
	release()
}

// TestNetRoundTripAllocs pins the allocation budget of one pipelined
// round trip over loopback, both ends of the wire and the pool between
// them, beside internal/serve's TestServeSteadyStateAllocs (which pins
// the pool's share at 1). The measured value is 6.5: a read is 7 — the
// request payload the caller builds, ReadFrame's header scratch and
// payload on the server, the completion closure, the pool's ownership
// copy of the value, ReadFrame's header scratch and payload on the
// client — and a write, whose reply has no payload, 6. The budget
// leaves headroom for scheduler noise, not for a per-request goroutine,
// channel or frame buffer to come back (the old path spent 13).
func TestNetRoundTripAllocs(t *testing.T) {
	const (
		budget  = 8.0
		workers = 4 // pipelined callers on the one connection
	)
	pool, _, addr := startTestServer(t, serve.Options{
		Shards:    2,
		NumBlocks: 512,
		Scheme:    config.SchemePSORAM,
		Levels:    8,
		Seed:      1,
	}, ServerOptions{})
	c := dialTest(t, addr, ClientOptions{})
	ctx := context.Background()
	data := make([]byte, pool.BlockBytes())
	for i := uint64(0); i < 1024; i++ {
		if err := c.Write(ctx, i%512, data); err != nil {
			t.Fatal(err)
		}
	}

	// Standing callers, so that a run allocates nothing but the
	// operations themselves.
	next := make(chan uint64)
	done := make(chan error)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				var err error
				if i%2 == 0 {
					err = c.Write(ctx, (i*2654435761)%512, data)
				} else {
					_, err = c.Read(ctx, (i*2654435761)%512)
				}
				done <- err
			}
		}()
	}
	defer close(next)
	i := uint64(0)
	perRun := testing.AllocsPerRun(300, func() {
		for w := 0; w < workers; w++ {
			i++
			next <- i
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
	allocs := perRun / workers
	if allocs > budget {
		t.Errorf("pipelined loopback round trip allocates %.2f/op, budget %.1f", allocs, budget)
	}
	t.Logf("pipelined loopback round trip allocs/op: %.2f (budget %.1f)", allocs, budget)
}
