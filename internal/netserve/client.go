package netserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// ErrClientClosed reports an operation on a closed client, or one whose
// connection died mid-call (the underlying cause is attached).
var ErrClientClosed = errors.New("netserve: client closed")

// ClientOptions tunes Dial. The zero value is usable.
type ClientOptions struct {
	// MaxInFlight caps outstanding requests on the connection (default
	// 64, the server's default per-connection budget). Acquiring a slot
	// is the first cancellation point: a context that dies while the
	// request is still waiting for one returns immediately. Set above the
	// server's ServerOptions.MaxInFlight, the excess requests are not
	// refused: they sit unread in the socket until the server has written
	// a reply — TCP pushback on the whole connection, which the status
	// frame protocol otherwise avoids.
	MaxInFlight int
	// MaxPayload caps response frame payloads (default DefaultMaxPayload).
	MaxPayload uint32
	// DialTimeout bounds the TCP connect (default 10s).
	DialTimeout time.Duration
}

func (o *ClientOptions) normalize() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxPayload == 0 {
		o.MaxPayload = DefaultMaxPayload
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
}

// callResult is what a waiting call receives: the response frame, or
// the connection's failure.
type callResult struct {
	f   Frame
	err error
}

// Client is one multiplexed protocol connection: requests from any
// number of goroutines are pipelined onto a single TCP stream, matched
// back to callers by request id, and may complete out of order. All
// methods are safe for concurrent use.
//
// The data path mirrors the server's (DESIGN.md §7, "Connection data
// path"). A caller encodes its own frame into the out buffer under the
// mu it already holds to register the request id; the writer goroutine
// swaps the buffer out and hands it to the socket in one Write per
// wake-up; the reader goroutine matches replies to the waiting callers'
// channels. No goroutine or channel carries a request between caller
// and socket.
type Client struct {
	nc   net.Conn
	opts ClientOptions

	tokens chan struct{} // in-flight budget
	wake   chan struct{} // the writer's doorbell: rung when out turns non-empty, and by fail

	mu       sync.Mutex
	pending  map[uint64]chan callResult // reply channels of in-flight calls, by request id
	out      []byte                     // encoded request frames not yet handed to the socket
	nextID   uint64
	closed   bool
	closeErr error

	// replies recycles the buffered(1) reply channels. One goes back only
	// after its result has been received, so a recycled channel is always
	// empty; an abandoned call's channel is left to the GC.
	replies sync.Pool

	dead chan struct{} // closed when the reader exits (conn unusable)
	wg   sync.WaitGroup

	info     Info
	infoOnce sync.Once
	infoErr  error
}

// Dial connects to a netserve server.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	opts.normalize()
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		nc:      nc,
		opts:    opts,
		tokens:  make(chan struct{}, opts.MaxInFlight),
		wake:    make(chan struct{}, 1),
		pending: make(map[uint64]chan callResult),
		dead:    make(chan struct{}),
	}
	c.replies.New = func() any { return make(chan callResult, 1) }
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// Inflight reports how many calls currently hold an in-flight token —
// encoded for the writer, on the wire, or awaiting a reply.
func (c *Client) Inflight() int { return len(c.tokens) }

// Close tears the connection down and fails every in-flight call with
// ErrClientClosed. Idempotent.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	c.wg.Wait()
	return nil
}

// fail marks the client dead with cause, closes the socket, and fails
// all pending calls. First cause wins.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = cause
	calls := make([]chan callResult, 0, len(c.pending))
	for _, ch := range c.pending {
		calls = append(calls, ch)
	}
	c.pending = make(map[uint64]chan callResult)
	c.mu.Unlock()
	c.nc.Close()
	c.wakeWriter() // the writer exits on seeing closed
	for _, ch := range calls {
		ch <- callResult{err: cause}
		<-c.tokens
	}
}

// wakeWriter wakes the writer; a doorbell already rung is enough.
func (c *Client) wakeWriter() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take removes id from the pending map, transferring ownership of its
// in-flight token to the caller. Exactly one of the reader, the waiter,
// or fail wins.
func (c *Client) take(id uint64) (chan callResult, bool) {
	c.mu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	return ch, ok
}

// writeLoop is the connection's only writer: one swap of the out buffer
// and one socket write per wake-up, repeated until a swap comes back
// empty. It yields once after waking so that callers that are already
// runnable — typically the ones the reader just handed replies to — get
// their next frames into the same write (the flush policy is stated on
// srvConn.writeLoop).
func (c *Client) writeLoop() {
	defer c.wg.Done()
	var spare []byte
	for range c.wake {
		runtime.Gosched()
		for {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return
			}
			buf := c.out
			c.out = spare[:0]
			c.mu.Unlock()
			spare = buf
			if len(buf) == 0 {
				break
			}
			if _, err := c.nc.Write(buf); err != nil {
				c.fail(fmt.Errorf("%w: write: %v", ErrClientClosed, err))
				return
			}
		}
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	defer close(c.dead)
	br := bufio.NewReaderSize(c.nc, 32<<10)
	for {
		f, err := ReadFrame(br, c.opts.MaxPayload)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				c.fail(ErrClientClosed) // no-op; keeps the cause stable
			} else {
				c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			}
			return
		}
		if ch, ok := c.take(f.ID); ok {
			ch <- callResult{f: f}
			<-c.tokens
		}
		// Unknown id: the waiter gave up (context canceled) — drop the
		// late reply on the floor.
	}
}

// do runs one request/response exchange. Cancellation is honoured at
// both places a call can wait: for an in-flight slot, and for the
// reply. A call abandoned after its frame was encoded (it may be on the
// wire) disowns its id, and the reply, when it arrives, is discarded.
func (c *Client) do(ctx context.Context, t Type, payload []byte) (Frame, error) {
	if err := ctx.Err(); err != nil {
		return Frame{}, err
	}
	// Stage 1: in-flight slot.
	select {
	case c.tokens <- struct{}{}:
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	case <-c.dead:
		return Frame{}, c.closedErr()
	}

	// Stage 2: register the id and encode the frame behind whatever is
	// already waiting for the writer, under one lock; re-check closed so
	// a racing fail cannot strand the call.
	ch := c.replies.Get().(chan callResult)
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		c.replies.Put(ch)
		<-c.tokens
		return Frame{}, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	first := len(c.out) == 0
	c.out = AppendFrame(c.out, Frame{Type: t, ID: id, Payload: payload})
	c.mu.Unlock()
	if first {
		c.wakeWriter()
	}

	// Stage 3: await the reply.
	var res callResult
	select {
	case res = <-ch:
	case <-ctx.Done():
		// The frame may be on the wire; disown the id so the eventual
		// reply is dropped, and release the slot.
		if _, ok := c.take(id); ok {
			<-c.tokens
			return Frame{}, ctx.Err()
		}
		// The reader (or fail) beat us to it and a result is en route;
		// it owns the token release.
		res = <-ch
	}
	c.replies.Put(ch)
	return res.f, res.err
}

func (c *Client) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeErr != nil {
		return c.closeErr
	}
	return ErrClientClosed
}

// expect unwraps a response frame of the wanted type, decoding TError
// frames into *StatusError (which unwraps to the serve sentinels).
func expect(f Frame, want Type) (Frame, error) {
	switch f.Type {
	case want:
		return f, nil
	case TError:
		se, err := decodeStatus(f.Payload)
		if err != nil {
			return Frame{}, err
		}
		return Frame{}, se
	default:
		return Frame{}, fmt.Errorf("netserve: unexpected %s response (want %s)", f.Type, want)
	}
}

// Read performs one oblivious read of addr. The returned slice is the
// caller's to keep.
func (c *Client) Read(ctx context.Context, addr uint64) ([]byte, error) {
	f, err := c.do(ctx, TRead, appendAddr(nil, addr))
	if err != nil {
		return nil, err
	}
	f, err = expect(f, TValue)
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}

// Write performs one oblivious write; data must be the server's block
// size (see Info).
func (c *Client) Write(ctx context.Context, addr uint64, data []byte) error {
	f, err := c.do(ctx, TWrite, append(appendAddr(make([]byte, 0, 8+len(data)), addr), data...))
	if err != nil {
		return err
	}
	_, err = expect(f, TWrote)
	return err
}

// Reshard asks the server to re-stripe its pool onto newShards shards
// (an admin call: it blocks until the migration commits, which can take
// a while on a large pool — bound it with ctx). It returns the pool's
// shard count and topology epoch after the operation. Failures unwrap
// to the serve sentinels: errors.Is(err, serve.ErrReshardBusy) reports
// a migration already in flight.
func (c *Client) Reshard(ctx context.Context, newShards int) (shards int, epoch uint64, err error) {
	f, err := c.do(ctx, TReshard, appendReshard(nil, uint32(newShards)))
	if err != nil {
		return 0, 0, err
	}
	f, err = expect(f, TResharded)
	if err != nil {
		return 0, 0, err
	}
	s, e, err := decodeResharded(f.Payload)
	return int(s), e, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping(ctx context.Context) error {
	f, err := c.do(ctx, TPing, nil)
	if err != nil {
		return err
	}
	_, err = expect(f, TPong)
	return err
}

// Stats fetches the server's stats snapshot.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	f, err := c.do(ctx, TStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	f, err = expect(f, TStatsReply)
	if err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	if err := json.Unmarshal(f.Payload, &st); err != nil {
		return ServerStats{}, fmt.Errorf("netserve: stats payload: %w", err)
	}
	return st, nil
}

// Info fetches (and caches) the server's self-description.
func (c *Client) Info(ctx context.Context) (Info, error) {
	c.infoOnce.Do(func() {
		f, err := c.do(ctx, TInfo, nil)
		if err != nil {
			c.infoErr = err
			return
		}
		f, err = expect(f, TInfoReply)
		if err != nil {
			c.infoErr = err
			return
		}
		c.info, c.infoErr = decodeInfo(f.Payload)
	})
	return c.info, c.infoErr
}
