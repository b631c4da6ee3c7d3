package netserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/oram"
	"repro/internal/serve"
)

// ErrServerClosed is returned by Serve after Shutdown begins, mirroring
// net/http's contract.
var ErrServerClosed = errors.New("netserve: server closed")

// ServerOptions tunes the front-end. The zero value is usable.
type ServerOptions struct {
	// MaxInFlight caps how many requests one connection may have in
	// flight at once (default 64): read off the socket and not yet
	// answered on it. The cap is per connection, so one greedy or stalled
	// client can exhaust only its own budget. Past it the server stops
	// reading that connection until a reply has been written, so further
	// requests wait in the socket; a client that keeps its own in-flight
	// cap (ClientOptions.MaxInFlight) at or below this never gets there.
	MaxInFlight int
	// MaxPayload caps request frame payloads (default DefaultMaxPayload).
	MaxPayload uint32
	// RetryAfter is the backoff hint carried in StatusOverloaded frames
	// (default 1ms — roughly the drain time of one full shard queue).
	RetryAfter time.Duration
	// Logf, when set, receives connection-level diagnostics (accept
	// errors, protocol violations). Nil discards them.
	Logf func(format string, args ...any)
}

func (o *ServerOptions) normalize() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxPayload == 0 {
		o.MaxPayload = DefaultMaxPayload
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// ServerStats snapshots the front-end plus the pool behind it (the
// TStats reply payload, JSON-encoded).
type ServerStats struct {
	Conns      int             `json:"conns"`       // open connections now
	TotalConns uint64          `json:"total_conns"` // accepted since start
	FramesIn   uint64          `json:"frames_in"`
	FramesOut  uint64          `json:"frames_out"`
	ReadsIn    uint64          `json:"reads_in"`   // socket read calls, all connections
	WritesOut  uint64          `json:"writes_out"` // socket write calls; frames_out/writes_out = replies per syscall
	Errors     uint64          `json:"errors"`     // TError frames sent
	Draining   bool            `json:"draining"`
	Pool       serve.PoolStats `json:"pool"`
}

// Server speaks the frame protocol over a serve.Pool. One Server serves
// one pool; connections are independent (per-connection reader and
// writer goroutines, per-connection in-flight budget and reply buffer),
// so a slow or dead connection never blocks another's replies.
type Server struct {
	pool *serve.Pool
	opts ServerOptions

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining bool

	wg sync.WaitGroup // accept loop + one per connection

	totalConns atomic.Uint64
	framesIn   atomic.Uint64
	framesOut  atomic.Uint64
	readsIn    atomic.Uint64
	writesOut  atomic.Uint64
	errFrames  atomic.Uint64
}

// NewServer builds a front-end over pool. The pool's lifecycle stays
// with the caller: Shutdown drains connections but does not close the
// pool.
func NewServer(pool *serve.Pool, opts ServerOptions) *Server {
	opts.normalize()
	return &Server{pool: pool, opts: opts, conns: make(map[*srvConn]struct{})}
}

// Serve accepts connections on ln until Shutdown (ErrServerClosed) or a
// fatal accept error. Like net/http, it blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		c := &srvConn{
			srv:    s,
			nc:     nc,
			sock:   countedConn{Conn: nc, srv: s},
			budget: make(chan struct{}, s.opts.MaxInFlight),
			wake:   make(chan struct{}, 1),
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.totalConns.Add(1)
		s.wg.Add(1)
		go c.run()
	}
}

// ListenAndServe listens on addr ("host:port"; ":0" picks a free port)
// and serves. The bound address is recoverable via Addr once Serve has
// started — use NewServer + net.Listen directly when the caller needs
// the port before serving.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Stats snapshots the server and its pool.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	n, draining := len(s.conns), s.draining
	s.mu.Unlock()
	return ServerStats{
		Conns:      n,
		TotalConns: s.totalConns.Load(),
		FramesIn:   s.framesIn.Load(),
		FramesOut:  s.framesOut.Load(),
		ReadsIn:    s.readsIn.Load(),
		WritesOut:  s.writesOut.Load(),
		Errors:     s.errFrames.Load(),
		Draining:   draining,
		Pool:       s.pool.Stats(),
	}
}

// Shutdown gracefully drains the server: the listener closes, every
// connection's read side is shut so clients see EOF after their final
// reply, in-flight requests complete and their responses are flushed,
// and Shutdown returns once every connection has wound down. If ctx
// expires first the remaining connections are torn down hard and the
// context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if already {
		return ErrServerClosed
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.closeRead()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx == nil {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// srvConn is one accepted connection, and its data path has one owner
// per stage (DESIGN.md §7, "Connection data path"). The reader
// goroutine decodes request frames, takes one budget unit per frame and
// submits data requests to the pool without waiting (serve.Pool.Go).
// Whoever produces a reply encodes it — the shard worker running the
// request's completion, the reader for frames it answers itself, the
// reshard goroutine — by appending the frame to pending under mu. The
// writer goroutine swaps pending out and hands it to the socket in one
// Write per wake-up. There is no goroutine per request and no channel a
// reply travels through.
//
// A budget unit is held from the moment a frame is read until its
// reply has reached the socket, or has been dropped because the writer
// is dead. At most MaxInFlight units exist, so pending never holds more
// than MaxInFlight replies however slowly the client reads; the reader
// blocks on the budget, and the client's unread requests back up in its
// own socket.
type srvConn struct {
	srv  *Server
	nc   net.Conn    // the accepted conn; closeRead needs its concrete type
	sock countedConn // nc behind the read/write call counters; all traffic goes through it

	budget chan struct{}      // per-connection in-flight budget, one unit per request frame
	cancel context.CancelFunc // abandons queued pool requests once the writer is dead

	// wake is the writer's doorbell: rung, under mu, by the reply that
	// turns pending non-empty. Ringing under mu orders the ring before the
	// writer's swap of that same frame, so once a frame's unit is back in
	// the budget nobody is still touching wake — which is what lets run
	// close it after reclaiming every unit.
	wake chan struct{}

	mu      sync.Mutex
	pending []byte // encoded replies not yet handed to the socket
	frames  int    // how many frames pending holds (budget units to return)
	dead    bool   // the writer gave up: replies are dropped on arrival

	readClosed atomic.Bool
}

// countedConn counts the socket calls a connection makes, where they
// are made: frames per write is what says whether replies share
// syscalls (ServerStats.WritesOut, ReadsIn).
type countedConn struct {
	net.Conn
	srv *Server
}

func (c countedConn) Read(p []byte) (int, error) {
	c.srv.readsIn.Add(1)
	return c.Conn.Read(p)
}

func (c countedConn) Write(p []byte) (int, error) {
	c.srv.writesOut.Add(1)
	return c.Conn.Write(p)
}

func (c *srvConn) run() {
	defer c.srv.wg.Done()
	// The connection context covers pool submissions: when the writer
	// dies (client gone mid-reply) queued pool requests are answered with
	// the context error at dequeue instead of running accesses nobody
	// will read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.cancel = cancel

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()

	c.readLoop(ctx)

	// Reader is done (EOF, protocol error, or drain). Reclaiming the
	// whole budget waits for every accepted request's reply to reach the
	// socket (or be dropped); only then may the writer go.
	for i := 0; i < cap(c.budget); i++ {
		c.budget <- struct{}{}
	}
	close(c.wake)
	<-writerDone
	c.nc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// closeRead shuts the connection's read side (graceful drain): the
// reader sees EOF, already-accepted requests still complete and their
// responses still flush.
func (c *srvConn) closeRead() {
	if !c.readClosed.CompareAndSwap(false, true) {
		return
	}
	type readCloser interface{ CloseRead() error }
	if rc, ok := c.nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	// Non-TCP transports (tests with pipes): a hard close still drains
	// in-flight requests, only the final replies are lost.
	c.nc.Close()
}

// readLoop decodes and dispatches request frames until the stream ends.
// Data requests go to the pool asynchronously; everything cheap is
// answered in place; only a reshard, which blocks for a whole
// migration, gets a goroutine.
func (c *srvConn) readLoop(ctx context.Context) {
	br := bufio.NewReaderSize(c.sock, 32<<10)
	pool := c.srv.pool
	for {
		f, err := ReadFrame(br, c.srv.opts.MaxPayload)
		if err != nil {
			if !isCleanClose(err) {
				c.srv.opts.Logf("netserve: %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.srv.framesIn.Add(1)
		// Blocks while MaxInFlight replies are outstanding; a dead writer
		// returns units as it drops replies, so this never strands.
		c.budget <- struct{}{}
		if ctx.Err() != nil {
			// Writer dead: frames still buffered are not worth a trip
			// through the pool.
			<-c.budget
			return
		}
		switch f.Type {
		case TRead, TWrite:
			c.access(ctx, f)
		case TPing:
			c.reply(Frame{Type: TPong, ID: f.ID})
		case TInfo:
			c.reply(Frame{Type: TInfoReply, ID: f.ID, Payload: appendInfo(nil, Info{
				NumBlocks:  pool.NumBlocks(),
				BlockBytes: uint32(pool.BlockBytes()),
				Shards:     uint32(pool.Shards()),
				Scheme:     uint32(pool.Scheme()),
			})})
		case TStats:
			js, err := json.Marshal(c.srv.Stats())
			if err != nil {
				c.reply(c.errorFrame(f.ID, StatusInternal, 0, err.Error()))
				break
			}
			c.reply(Frame{Type: TStatsReply, ID: f.ID, Payload: js})
		case TReshard:
			n, err := decodeReshard(f.Payload)
			if err != nil {
				c.reply(c.errorFrame(f.ID, StatusBadRequest, 0, err.Error()))
				break
			}
			// Admin operation: holds its budget unit for the whole
			// migration; data traffic on this and every other connection
			// keeps flowing, with migrating-stripe requests answered
			// StatusResharding. run's budget reclaim waits for it.
			go func(id uint64) {
				if err := pool.Reshard(ctx, int(n)); err != nil {
					c.reply(c.poolErrorFrame(id, err))
					return
				}
				c.reply(Frame{Type: TResharded, ID: id,
					Payload: appendResharded(nil, uint32(pool.Shards()), pool.Epoch())})
			}(f.ID)
		default:
			// Well-formed but nonsensical (a response type sent as a
			// request): answer in-band and keep the stream, the framing is
			// still intact.
			c.reply(c.errorFrame(f.ID, StatusBadRequest, 0, "response-typed frame sent as request"))
		}
	}
}

// access validates one TRead/TWrite frame and submits it to the pool.
// The completion runs on the replying goroutine — the shard's worker,
// or its persist worker under group commit — and encodes the reply
// there; nothing on this connection waits for it.
func (c *srvConn) access(ctx context.Context, f Frame) {
	pool := c.srv.pool
	addr, err := decodeAddr(f.Payload)
	if err != nil {
		c.reply(c.errorFrame(f.ID, StatusBadRequest, 0, err.Error()))
		return
	}
	if addr >= pool.NumBlocks() {
		c.reply(c.errorFrame(f.ID, StatusBadRequest, 0,
			fmt.Sprintf("addr %d outside [0,%d)", addr, pool.NumBlocks())))
		return
	}
	op, data := oram.OpRead, []byte(nil)
	if f.Type == TWrite {
		op, data = oram.OpWrite, f.Payload[8:]
		if len(data) != pool.BlockBytes() {
			c.reply(c.errorFrame(f.ID, StatusBadRequest, 0,
				fmt.Sprintf("write of %d bytes, block size %d", len(data), pool.BlockBytes())))
			return
		}
	}
	id, write := f.ID, f.Type == TWrite // captured by value: assigned once
	pool.Go(ctx, op, addr, data, func(v []byte, err error) {
		switch {
		case err != nil:
			c.reply(c.poolErrorFrame(id, err))
		case write:
			c.reply(Frame{Type: TWrote, ID: id})
		default:
			c.reply(Frame{Type: TValue, ID: id, Payload: v})
		}
	})
}

// reply encodes one response frame into the pending buffer, ringing the
// writer when the buffer was empty. The caller's request holds a budget
// unit; the writer returns it once the frame has reached the socket,
// and a dead writer's replies return it here.
func (c *srvConn) reply(f Frame) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		<-c.budget
		return
	}
	if c.frames == 0 {
		select {
		case c.wake <- struct{}{}:
		default: // already rung; the writer has not swapped yet
		}
	}
	c.pending = AppendFrame(c.pending, f)
	c.frames++
	c.mu.Unlock()
	c.srv.framesOut.Add(1)
}

// writeLoop is the connection's only writer: one swap of the pending
// buffer and one socket write per wake-up, repeated until a swap comes
// back empty.
//
// Flush policy (the same on Client.writeLoop): no timer, no frame-count
// threshold, no option. After a wake-up the writer yields once, so that
// goroutines that are already runnable — the other shard's worker
// finishing its round, a persist worker releasing a commit group — get
// their frames into the same write. On an idle process Gosched returns
// at once, so an unloaded round trip pays a scheduler check, not a
// delay.
func (c *srvConn) writeLoop() {
	var spare []byte
	for range c.wake {
		runtime.Gosched()
		for {
			c.mu.Lock()
			buf, n := c.pending, c.frames
			c.pending, c.frames = spare[:0], 0
			c.mu.Unlock()
			spare = buf
			if n == 0 {
				break
			}
			if _, err := c.sock.Write(buf); err != nil {
				c.die(n)
				return
			}
			for ; n > 0; n-- {
				<-c.budget
			}
		}
	}
}

// die is the writer giving up after a write error with n frames in
// hand: from here on replies are dropped on arrival, every unit held by
// a frame that will never be written goes back, queued pool requests
// are abandoned through the connection context, and the socket is
// closed so the reader stops too.
func (c *srvConn) die(n int) {
	c.mu.Lock()
	c.dead = true
	n += c.frames
	c.pending, c.frames = nil, 0
	c.mu.Unlock()
	c.cancel()
	c.nc.Close()
	for ; n > 0; n-- {
		<-c.budget
	}
}

func (c *srvConn) errorFrame(id uint64, code Status, retryAfter time.Duration, msg string) Frame {
	c.srv.errFrames.Add(1)
	return Frame{Type: TError, ID: id, Payload: appendStatus(nil, code, retryAfter, msg)}
}

// poolErrorFrame maps a serving-layer error to its wire status. This is
// the admission-control boundary: ErrOverloaded becomes a RETRY_AFTER
// status frame the client backs off on, instead of TCP pushback that
// would stall the whole connection (DESIGN.md §7, "Backpressure is a
// status frame, not TCP pushback").
func (c *srvConn) poolErrorFrame(id uint64, err error) Frame {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return c.errorFrame(id, StatusOverloaded, c.srv.opts.RetryAfter, "shard queue full")
	case errors.Is(err, serve.ErrInterrupted):
		return c.errorFrame(id, StatusInterrupted, 0, "access interrupted by power failure; shard recovered, re-issue")
	case errors.Is(err, serve.ErrResharding):
		return c.errorFrame(id, StatusResharding, c.srv.opts.RetryAfter, "keyspace stripe migrating")
	case errors.Is(err, serve.ErrReshardBusy):
		return c.errorFrame(id, StatusReshardBusy, 0, "a reshard is already in flight")
	case errors.Is(err, serve.ErrPoolClosed):
		return c.errorFrame(id, StatusClosing, 0, "server draining")
	default:
		return c.errorFrame(id, StatusInternal, 0, err.Error())
	}
}

// isCleanClose reports whether a read error is an expected end of
// stream (client hung up, or our own drain/teardown closed the socket)
// rather than a protocol violation worth logging.
func isCleanClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, ErrTruncated)
}
