// Package netserve is the network front-end for the serving pool: a
// length-prefixed binary TCP protocol over serve.Pool, plus the matching
// client and an open-loop load generator.
//
// Wire format. Every message is one frame:
//
//	offset  size  field
//	0       2     magic 0x50 0x53 ("PS")
//	2       1     protocol version (1)
//	3       1     frame type
//	4       4     payload length, big-endian
//	8       8     request id, big-endian
//	16      n     payload
//
// The request id is chosen by the client and echoed verbatim in the
// response, so many requests can be in flight on one connection and
// complete out of order. Payload length is validated against a hard cap
// before any allocation: a mutated or hostile length field yields a
// typed error, never an over-allocation.
//
// Backpressure is in-band: a pool that sheds load answers with a TError
// frame carrying StatusOverloaded and a retry-after hint, instead of
// letting the TCP window fill (see DESIGN.md for why).
package netserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/serve"
)

// Protocol constants.
const (
	// Version is the wire protocol version carried in every frame
	// header; a peer speaking a different version is rejected with
	// ErrBadVersion before any payload is read.
	Version = 1

	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 16

	// DefaultMaxPayload caps a frame's payload. Decoders reject larger
	// declared lengths before allocating.
	DefaultMaxPayload = 1 << 20
)

var magic = [2]byte{'P', 'S'}

// Type identifies a frame. Requests have the high bit clear, responses
// have it set; a response's type determines how its payload decodes.
type Type uint8

// Frame types.
const (
	TRead    Type = 0x01 // payload: addr u64
	TWrite   Type = 0x02 // payload: addr u64 + block data
	TStats   Type = 0x03 // payload: empty
	TPing    Type = 0x04 // payload: empty
	TInfo    Type = 0x05 // payload: empty
	TReshard Type = 0x06 // payload: new shard count u32 (admin)

	TValue      Type = 0x81 // payload: block data (read result / previous value)
	TWrote      Type = 0x82 // payload: empty
	TStatsReply Type = 0x83 // payload: ServerStats JSON
	TPong       Type = 0x84 // payload: empty
	TInfoReply  Type = 0x85 // payload: Info, fixed layout
	TResharded  Type = 0x86 // payload: shard count u32 + epoch u64
	TError      Type = 0x8F // payload: status u8 + retry-after µs u32 + message
)

// Request reports whether t is a client→server frame type.
func (t Type) Request() bool { return t&0x80 == 0 }

func (t Type) String() string {
	switch t {
	case TRead:
		return "read"
	case TWrite:
		return "write"
	case TStats:
		return "stats"
	case TPing:
		return "ping"
	case TInfo:
		return "info"
	case TReshard:
		return "reshard"
	case TValue:
		return "value"
	case TWrote:
		return "wrote"
	case TStatsReply:
		return "stats-reply"
	case TPong:
		return "pong"
	case TInfoReply:
		return "info-reply"
	case TResharded:
		return "resharded"
	case TError:
		return "error"
	}
	return fmt.Sprintf("type(0x%02x)", uint8(t))
}

func validType(t Type) bool {
	switch t {
	case TRead, TWrite, TStats, TPing, TInfo, TReshard,
		TValue, TWrote, TStatsReply, TPong, TInfoReply, TResharded, TError:
		return true
	}
	return false
}

// Typed codec errors. Every way a frame can fail to decode maps to one
// of these (possibly wrapped with detail); the codec never panics.
var (
	ErrBadMagic     = errors.New("netserve: bad frame magic")
	ErrBadVersion   = errors.New("netserve: unsupported protocol version")
	ErrUnknownType  = errors.New("netserve: unknown frame type")
	ErrTooLarge     = errors.New("netserve: frame payload exceeds maximum")
	ErrTruncated    = errors.New("netserve: truncated frame")
	ErrShortPayload = errors.New("netserve: payload too short for frame type")
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    Type
	ID      uint64
	Payload []byte
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	var h [HeaderLen]byte
	h[0], h[1] = magic[0], magic[1]
	h[2] = Version
	h[3] = byte(f.Type)
	binary.BigEndian.PutUint32(h[4:8], uint32(len(f.Payload)))
	binary.BigEndian.PutUint64(h[8:16], f.ID)
	dst = append(dst, h[:]...)
	return append(dst, f.Payload...)
}

// ReadFrame reads one frame from r. The header is fully validated —
// magic, version, known type, payload length against maxPayload
// (0 means DefaultMaxPayload) — before the payload buffer is
// allocated, so a hostile length field cannot force an over-allocation.
// A cleanly closed stream returns io.EOF; a stream that dies inside a
// frame returns ErrTruncated.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	var h [HeaderLen]byte
	if n, err := io.ReadFull(r, h[:]); err != nil {
		if n == 0 && err == io.EOF {
			return Frame{}, io.EOF // the stream ended between frames
		}
		return Frame{}, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if h[0] != magic[0] || h[1] != magic[1] {
		return Frame{}, fmt.Errorf("%w: 0x%02x%02x", ErrBadMagic, h[0], h[1])
	}
	if h[2] != Version {
		return Frame{}, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, h[2], Version)
	}
	t := Type(h[3])
	if !validType(t) {
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrUnknownType, h[3])
	}
	n := binary.BigEndian.Uint32(h[4:8])
	if n > maxPayload {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	f := Frame{Type: t, ID: binary.BigEndian.Uint64(h[8:16])}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
		}
	}
	return f, nil
}

// --- request/response payload codecs ---

// appendAddr appends addr to dst (the read payload, and the write
// payload's prefix).
func appendAddr(dst []byte, addr uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], addr)
	return append(dst, b[:]...)
}

func decodeAddr(p []byte) (uint64, error) {
	if len(p) < 8 {
		return 0, fmt.Errorf("%w: need 8 bytes, have %d", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// Status is the outcome code carried by a TError frame.
type Status uint8

// Error statuses.
const (
	StatusBadRequest  Status = 1 // malformed request frame
	StatusOverloaded  Status = 2 // shard queue full; retry after the hint
	StatusInterrupted Status = 3 // simulated power failure; shard recovered, re-issue
	StatusClosing     Status = 4 // server draining; connection will close
	StatusInternal    Status = 5 // backend error
	StatusResharding  Status = 6 // keyspace stripe migrating; retry after the hint
	StatusReshardBusy Status = 7 // a reshard is already in flight (admin)
)

func (s Status) String() string {
	switch s {
	case StatusBadRequest:
		return "bad-request"
	case StatusOverloaded:
		return "overloaded"
	case StatusInterrupted:
		return "interrupted"
	case StatusClosing:
		return "closing"
	case StatusInternal:
		return "internal"
	case StatusResharding:
		return "resharding"
	case StatusReshardBusy:
		return "reshard-busy"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// StatusError is a decoded TError frame. It unwraps to the serving
// layer's sentinel errors, so errors.Is(err, serve.ErrOverloaded) works
// across the wire exactly as it does in-process.
type StatusError struct {
	Code       Status
	RetryAfter time.Duration // backoff hint; set for StatusOverloaded/StatusResharding
	Msg        string
}

func (e *StatusError) Error() string {
	if e.Code == StatusOverloaded || e.Code == StatusResharding {
		return fmt.Sprintf("netserve: %s (retry after %v): %s", e.Code, e.RetryAfter, e.Msg)
	}
	return fmt.Sprintf("netserve: %s: %s", e.Code, e.Msg)
}

// Unwrap maps the wire status back to the in-process sentinel.
func (e *StatusError) Unwrap() error {
	switch e.Code {
	case StatusOverloaded:
		return serve.ErrOverloaded
	case StatusInterrupted:
		return serve.ErrInterrupted
	case StatusClosing:
		return serve.ErrPoolClosed
	case StatusResharding:
		return serve.ErrResharding
	case StatusReshardBusy:
		return serve.ErrReshardBusy
	}
	return nil
}

// appendStatus appends a TError payload.
func appendStatus(dst []byte, code Status, retryAfter time.Duration, msg string) []byte {
	var b [5]byte
	b[0] = byte(code)
	us := retryAfter.Microseconds()
	if us < 0 {
		us = 0
	}
	if us > int64(^uint32(0)) {
		us = int64(^uint32(0))
	}
	binary.BigEndian.PutUint32(b[1:], uint32(us))
	dst = append(dst, b[:]...)
	return append(dst, msg...)
}

func decodeStatus(p []byte) (*StatusError, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("%w: error frame needs 5 bytes, have %d", ErrShortPayload, len(p))
	}
	return &StatusError{
		Code:       Status(p[0]),
		RetryAfter: time.Duration(binary.BigEndian.Uint32(p[1:5])) * time.Microsecond,
		Msg:        string(p[5:]),
	}, nil
}

// Info is the server's self-description (the TInfo handshake): enough
// for a client to size writes and address reads without out-of-band
// configuration.
type Info struct {
	NumBlocks  uint64
	BlockBytes uint32
	Shards     uint32
	Scheme     uint32
}

func appendInfo(dst []byte, in Info) []byte {
	var b [20]byte
	binary.BigEndian.PutUint64(b[0:8], in.NumBlocks)
	binary.BigEndian.PutUint32(b[8:12], in.BlockBytes)
	binary.BigEndian.PutUint32(b[12:16], in.Shards)
	binary.BigEndian.PutUint32(b[16:20], in.Scheme)
	return append(dst, b[:]...)
}

// appendReshard appends a TReshard payload (the requested shard count).
func appendReshard(dst []byte, shards uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], shards)
	return append(dst, b[:]...)
}

func decodeReshard(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: reshard frame needs 4 bytes, have %d", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint32(p), nil
}

// appendResharded appends a TResharded payload: the pool's shard count
// and topology epoch after the (possibly no-op) reshard committed.
func appendResharded(dst []byte, shards uint32, epoch uint64) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:4], shards)
	binary.BigEndian.PutUint64(b[4:12], epoch)
	return append(dst, b[:]...)
}

func decodeResharded(p []byte) (shards uint32, epoch uint64, err error) {
	if len(p) < 12 {
		return 0, 0, fmt.Errorf("%w: resharded frame needs 12 bytes, have %d", ErrShortPayload, len(p))
	}
	return binary.BigEndian.Uint32(p[0:4]), binary.BigEndian.Uint64(p[4:12]), nil
}

func decodeInfo(p []byte) (Info, error) {
	if len(p) < 20 {
		return Info{}, fmt.Errorf("%w: info frame needs 20 bytes, have %d", ErrShortPayload, len(p))
	}
	return Info{
		NumBlocks:  binary.BigEndian.Uint64(p[0:8]),
		BlockBytes: binary.BigEndian.Uint32(p[8:12]),
		Shards:     binary.BigEndian.Uint32(p[12:16]),
		Scheme:     binary.BigEndian.Uint32(p[16:20]),
	}, nil
}
