package netserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/serve"
)

// startTestServer stands up a pool + front-end on a loopback listener
// and tears both down with the test.
func startTestServer(t testing.TB, popts serve.Options, sopts ServerOptions) (*serve.Pool, *Server, string) {
	t.Helper()
	pool, err := serve.New(popts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pool, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && err != ErrServerClosed {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		if !pool.Closed() {
			if err := pool.Close(ctx); err != nil {
				t.Errorf("pool close: %v", err)
			}
		}
	})
	return pool, srv, ln.Addr().String()
}

func dialTest(t testing.TB, addr string, opts ClientOptions) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitUntil polls cond (every millisecond, for up to ten seconds): tests
// wait on the state a step stands for, not for a fixed time.
func waitUntil(t testing.TB, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// soleConn waits for the server's one open connection and returns it,
// for tests that watch its budget and pending buffer from inside.
func soleConn(t testing.TB, srv *Server) *srvConn {
	t.Helper()
	var sc *srvConn
	waitUntil(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.conns {
			sc = c
		}
		return len(srv.conns) == 1
	}, "server never registered the connection")
	return sc
}

// pendingState reports how many encoded replies sit in the pending
// buffer and whether the writer has given up.
func (c *srvConn) pendingState() (frames int, dead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames, c.dead
}

func smallPoolOpts() serve.Options {
	return serve.Options{
		Shards:    4,
		NumBlocks: 256,
		Scheme:    config.SchemePSORAM,
		Levels:    5,
		Seed:      7,
	}
}

// TestNetRoundTrip: the full stack end to end — info handshake, writes,
// reads, ping, stats — over one real TCP connection.
func TestNetRoundTrip(t *testing.T) {
	pool, _, addr := startTestServer(t, smallPoolOpts(), ServerOptions{})
	c := dialTest(t, addr, ClientOptions{})
	ctx := context.Background()

	info, err := c.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumBlocks != pool.NumBlocks() || int(info.BlockBytes) != pool.BlockBytes() ||
		int(info.Shards) != pool.Shards() || config.Scheme(info.Scheme) != pool.Scheme() {
		t.Fatalf("info %+v does not describe the pool", info)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	bb := int(info.BlockBytes)
	want := make(map[uint64][]byte)
	for i := 0; i < 64; i++ {
		addr := uint64(i * 3 % 256)
		v := oracle.Value(addr, i, bb)
		if err := c.Write(ctx, addr, v); err != nil {
			t.Fatalf("write %d: %v", addr, err)
		}
		want[addr] = v
	}
	zero := make([]byte, bb)
	for a := uint64(0); a < info.NumBlocks; a++ {
		got, err := c.Read(ctx, a)
		if err != nil {
			t.Fatalf("read %d: %v", a, err)
		}
		w, ok := want[a]
		if !ok {
			w = zero
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("addr %d = %.16q, want %.16q", a, got, w)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Conns != 1 {
		t.Errorf("stats report %d conns, want 1", st.Conns)
	}
	if sub, _, completed, _ := st.Pool.Totals(); sub == 0 || completed == 0 {
		t.Errorf("pool stats flat: submitted=%d completed=%d", sub, completed)
	}
	if st.FramesIn == 0 || st.FramesOut == 0 {
		t.Errorf("frame counters flat: in=%d out=%d", st.FramesIn, st.FramesOut)
	}
}

// TestNetBadRequests: malformed but well-framed requests get in-band
// StatusBadRequest answers and the connection survives them.
func TestNetBadRequests(t *testing.T) {
	pool, _, addr := startTestServer(t, smallPoolOpts(), ServerOptions{})
	c := dialTest(t, addr, ClientOptions{})
	ctx := context.Background()

	checkBad := func(err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != StatusBadRequest {
			t.Fatalf("err = %v, want StatusBadRequest", err)
		}
	}
	// Out-of-range addr, short read payload, wrong write size,
	// response-typed frame as request.
	_, err := c.Read(ctx, pool.NumBlocks()+1)
	checkBad(err)
	f, err := c.do(ctx, TRead, []byte{1, 2, 3})
	if err == nil {
		_, err = expect(f, TValue)
	}
	checkBad(err)
	if err := c.Write(ctx, 0, make([]byte, pool.BlockBytes()-1)); err == nil {
		t.Fatal("short write accepted")
	} else {
		checkBad(err)
	}
	f, err = c.do(ctx, Type(TValue), nil) // response type as request
	if err == nil {
		_, err = expect(f, TValue)
	}
	checkBad(err)

	// The stream is still healthy.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("connection did not survive bad requests: %v", err)
	}
}

// TestNetConcurrentOracle is the concurrency proof: N connections × M
// pipelined streams per connection, every stream running the
// differential oracle against a private reference over its own address
// stripe, with a full sweep plus structural invariants at the end. Run
// under -race this exercises reader/writer/handler interleavings on
// both sides of the wire.
func TestNetConcurrentOracle(t *testing.T) {
	const (
		conns          = 6
		streamsPerConn = 8
		opsPerStream   = 40
	)
	popts := serve.Options{
		Shards:    4,
		NumBlocks: 384,
		Scheme:    config.SchemePSORAM,
		Levels:    5,
		Seed:      11,
		// A deep queue: this test proves values, not shedding.
		QueueDepth: 4096,
	}
	ops := opsPerStream
	if testing.Short() {
		ops = 12
	}
	pool, _, addr := startTestServer(t, popts, ServerOptions{MaxInFlight: streamsPerConn * 2})
	ctx := context.Background()
	bb := pool.BlockBytes()
	stripe := popts.NumBlocks / (conns * streamsPerConn) // 8 addrs per stream

	var wg sync.WaitGroup
	var failures atomic.Uint64
	for ci := 0; ci < conns; ci++ {
		c := dialTest(t, addr, ClientOptions{MaxInFlight: streamsPerConn * 2})
		for si := 0; si < streamsPerConn; si++ {
			wg.Add(1)
			go func(ci, si int, c *Client) {
				defer wg.Done()
				stream := uint64(ci*streamsPerConn + si)
				base := stream * stripe
				w := oracle.Workload{Name: fmt.Sprintf("net-%d", stream), WriteRatio: 0.6}
				genOps := oracle.GenOps(w, stripe, bb, ops, 1000+stream)
				ref := make(map[uint64][]byte)
				zero := make([]byte, bb)
				for i, op := range genOps {
					a := base + op.Addr
					for {
						var err error
						var got []byte
						if op.Write {
							err = c.Write(ctx, a, op.Data)
						} else {
							got, err = c.Read(ctx, a)
						}
						if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrInterrupted) {
							continue // back off and re-issue
						}
						if err != nil {
							failures.Add(1)
							t.Errorf("stream %d op %d: %v", stream, i, err)
							return
						}
						if !op.Write {
							want, ok := ref[a]
							if !ok {
								want = zero
							}
							if !bytes.Equal(got, want) {
								failures.Add(1)
								t.Errorf("stream %d op %d addr %d: got %.16q want %.16q", stream, i, a, got, want)
								return
							}
						}
						break
					}
					if op.Write {
						ref[a] = op.Data
					}
				}
				// Stream-final sweep through the wire.
				for a := base; a < base+stripe; a++ {
					got, err := c.Read(ctx, a)
					if err != nil {
						failures.Add(1)
						t.Errorf("sweep addr %d: %v", a, err)
						return
					}
					want, ok := ref[a]
					if !ok {
						want = zero
					}
					if !bytes.Equal(got, want) {
						failures.Add(1)
						t.Errorf("sweep addr %d: got %.16q want %.16q", a, got, want)
					}
				}
			}(ci, si, c)
		}
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d oracle violations", failures.Load())
	}
	if errs := pool.Invariants(ctx); len(errs) != 0 {
		t.Fatalf("structural invariants violated after network load: %v", errs)
	}
}

// TestNetSlowReaderIsolation: one connection that pipelines requests
// and never reads a byte of its replies must wedge only itself. Its
// budget fills and the server stops reading it; the replies buffered
// for it never exceed MaxInFlight; another connection's round trips go
// on undisturbed; and a Shutdown with a deadline still returns. This is
// the per-connection backpressure argument made concrete.
func TestNetSlowReaderIsolation(t *testing.T) {
	const maxInFlight = 8
	popts := smallPoolOpts()
	popts.QueueDepth = 1024
	_, srv, addr := startTestServer(t, popts, ServerOptions{MaxInFlight: maxInFlight})

	// The slow reader: a raw TCP conn spraying read requests, never
	// consuming replies. Minimal socket buffers on both ends of its reply
	// direction, so a few dozen unread replies fill them (the defaults
	// take ~50k).
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sc := soleConn(t, srv)
	raw.(*net.TCPConn).SetReadBuffer(1)
	sc.nc.(*net.TCPConn).SetWriteBuffer(1)
	var flood []byte
	for i := uint64(0); i < 512; i++ {
		flood = AppendFrame(flood, Frame{Type: TRead, ID: i, Payload: appendAddr(nil, i%256)})
	}
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		for {
			// Blocks once the server stops draining it; ends when the
			// connection is torn down.
			if _, err := raw.Write(flood); err != nil {
				return
			}
		}
	}()
	checkPending := func() {
		t.Helper()
		if n, _ := sc.pendingState(); n > maxInFlight {
			t.Fatalf("%d replies pending for the slow reader, budget is %d", n, maxInFlight)
		}
	}

	// Wedged: every budget unit is out and the reader has stopped taking
	// frames.
	last := uint64(0)
	waitUntil(t, func() bool {
		checkPending()
		in := srv.Stats().FramesIn
		stalled := len(sc.budget) == maxInFlight && in == last
		last = in
		return stalled
	}, "the slow reader never wedged its own pipeline")

	c := dialTest(t, addr, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := c.Read(ctx, uint64(i%256)); err != nil {
			t.Fatalf("victim conn read %d stalled behind the slow reader: %v", i, err)
		}
		checkPending()
	}

	// The wedged connection cannot drain gracefully; the deadline tears it
	// down, and every budget unit still comes back (run cannot return, and
	// the connection count cannot reach zero, otherwise).
	sctx, scancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer scancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(sctx) }()
	select {
	case err := <-shut:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Shutdown = %v, want DeadlineExceeded (the slow reader never drains)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown with a deadline hung on the slow reader")
	}
	waitUntil(t, func() bool { return srv.Stats().Conns == 0 }, "connections outlived the forced shutdown")
	<-floodDone
}

// slowBackend wraps a plain in-memory store with a configurable access
// delay, so tests can wedge shard workers deterministically.
type slowBackend struct {
	serve.Backend
	delay time.Duration
	gate  chan struct{} // when non-nil, every access also waits for a tick
}

func (s *slowBackend) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.Backend.Access(op, addr, data)
}

func slowFactory(delay time.Duration, gate chan struct{}) serve.Factory {
	return func(shard int, local uint64) (serve.Backend, error) {
		t, err := oracle.NewTarget(oracle.Params{
			Scheme:    config.SchemeNonORAM,
			NumBlocks: local,
			Seed:      uint64(shard) + 1,
		})
		if err != nil {
			return nil, err
		}
		return &slowBackend{Backend: t.(serve.Backend), delay: delay, gate: gate}, nil
	}
}

// TestNetOverloadRetryAfter: a wedged shard queue surfaces as a
// RETRY_AFTER status frame carrying the server's hint, and unwraps to
// serve.ErrOverloaded on the client — admission control end to end.
func TestNetOverloadRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	popts := serve.Options{
		Shards:     1,
		NumBlocks:  64,
		QueueDepth: 1,
		MaxBatch:   1,
		Factory:    slowFactory(0, gate),
	}
	hint := 3 * time.Millisecond
	pool, _, addr := startTestServer(t, popts, ServerOptions{MaxInFlight: 64, RetryAfter: hint})
	c := dialTest(t, addr, ClientOptions{MaxInFlight: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Flood: with the worker gated, the one-deep queue must reject most
	// of these with an overload frame.
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
	// Let every request reach the pool — admitted or shed — before
	// releasing the worker, then tick it until the flood drains.
	waitUntil(t, func() bool {
		st := pool.Stats().Shards[0]
		return st.Submitted+st.Rejected == n
	}, "the flood never reached the pool")
	drain := make(chan struct{})
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-drain:
				return
			}
		}
	}()
	wg.Wait()
	close(drain)
	close(errs)

	var overloaded, ok int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, serve.ErrOverloaded):
			overloaded++
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("overload error %v is not a StatusError", err)
			}
			if se.RetryAfter != hint {
				t.Fatalf("RetryAfter = %v, want the server's hint %v", se.RetryAfter, hint)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if overloaded == 0 {
		t.Fatalf("no overload frames seen (%d ok) — admission control never engaged", ok)
	}
	if ok == 0 {
		t.Fatal("every request shed — the queue never admitted anything")
	}
	t.Logf("%d served, %d shed with RETRY_AFTER", ok, overloaded)
}

// TestNetGracefulDrain: Shutdown completes in-flight requests and
// flushes their replies before connections close; requests after the
// drain fail fast.
func TestNetGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	popts := serve.Options{
		Shards:     1,
		NumBlocks:  64,
		QueueDepth: 64,
		Factory:    slowFactory(0, gate),
	}
	pool, srv, addr := startTestServer(t, popts, ServerOptions{})
	c := dialTest(t, addr, ClientOptions{})
	ctx := context.Background()

	// Park requests in flight, then drain while they are unanswered.
	const n = 8
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Read(ctx, uint64(i))
			results <- err
		}(i)
	}
	waitUntil(t, func() bool { return pool.Stats().Shards[0].Submitted == n },
		"the requests never reached the pool")

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()
	// Shutdown must wait for the in-flight requests: release them now.
	go func() {
		for i := 0; i < n; i++ {
			gate <- struct{}{}
		}
	}()
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request %d lost to the drain: %v", i, err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := pool.Close(ctx); err != nil {
		t.Fatalf("pool close: %v", err)
	}

	// The drained server is gone: new requests on the old conn fail,
	// new dials are refused.
	if err := c.Ping(ctx); err == nil {
		t.Fatal("ping succeeded after drain")
	}
	if _, err := Dial(addr, ClientOptions{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestNetStatsDraining: the stats frame reports draining state through
// the serve.Pool.Closed hook once the pool is shut.
func TestNetStatsDraining(t *testing.T) {
	popts := smallPoolOpts()
	pool, srv, _ := startTestServer(t, popts, ServerOptions{})
	if srv.Stats().Draining {
		t.Fatal("fresh server reports draining")
	}
	if pool.Closed() {
		t.Fatal("fresh pool reports closed")
	}
}
