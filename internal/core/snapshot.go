package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/oram"
)

// This file implements durable-state snapshots: what NVM physically
// holds. Saving writes the sealed tree image, the durable position map,
// the seal-version cursor, and a root length that is always 0 (a field
// reserved by format version 1; a loader refuses any other value).
// Loading reconstructs a controller from NOTHING BUT that durable state
// — exactly the information available after a power cycle — so a load
// is a recovery: the stash, the temporary PosMap, and every other
// volatile structure start empty.
//
// Snapshots cover the flat (non-recursive) schemes; the recursive
// hierarchy's posmap trees are additional NVM allocations a future
// format revision could append.

const (
	snapMagic   = "PSOR"
	snapVersion = 1
)

// Typed snapshot-load failures, so callers (the serving layer's
// resharding path, backup/restore tooling) can distinguish a
// short/interrupted stream from a damaged or tampered one.
var (
	// ErrSnapshotTruncated reports a snapshot stream that ended before
	// the format said it would (interrupted save, partial copy).
	ErrSnapshotTruncated = errors.New("core: snapshot truncated")
	// ErrSnapshotCorrupted reports a snapshot whose contents are
	// structurally invalid.
	ErrSnapshotCorrupted = errors.New("core: snapshot corrupted")
)

// snapRead wraps a raw read failure: an EOF mid-structure is a
// truncation, anything else passes through.
func snapRead(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: reading %s: %v", ErrSnapshotTruncated, what, err)
	}
	return fmt.Errorf("core: reading %s: %w", what, err)
}

// SaveDurable serializes the controller's durable NVM state.
func (c *Controller) SaveDurable(w io.Writer) error {
	if c.Rec != nil {
		return fmt.Errorf("core: snapshots do not cover recursive schemes yet")
	}
	if c.closed {
		return errClosed
	}
	if c.crashed {
		return fmt.Errorf("core: recover before snapshotting")
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, snapMagic); err != nil {
		return err
	}
	t := c.ORAM.Tree
	hdr := []uint64{
		snapVersion,
		uint64(c.Scheme),
		uint64(t.L),
		uint64(t.Z),
		uint64(c.Cfg.BlockBytes),
		c.ORAM.NumBlocks(),
		uint64(c.ORAM.VerSeq()),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Durable position map.
	for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.durable.Lookup(a))); err != nil {
			return err
		}
	}
	// Sealed tree image.
	for b := uint64(0); b < t.Buckets(); b++ {
		for z := 0; z < t.Z; z++ {
			s := c.ORAM.Image.Slot(b, z)
			if err := binary.Write(bw, binary.LittleEndian, s.IV1); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, s.IV2); err != nil {
				return err
			}
			if _, err := bw.Write(s.SealedHeader); err != nil {
				return err
			}
			if _, err := bw.Write(s.SealedData); err != nil {
				return err
			}
		}
	}
	// The reserved root length.
	if err := binary.Write(bw, binary.LittleEndian, uint32(0)); err != nil {
		return err
	}
	c.counters.Inc("snapshot.saves")
	return bw.Flush()
}

// LoadDurable reconstructs a controller from a durable snapshot. cfg
// supplies the run-time parameters (NVM timing, WPQ sizes, stash size)
// and runtime the execution-only options (memory model, group
// commit); the geometry and contents come from the snapshot. Loading
// performs the §4.3 recovery: volatile state starts empty and the
// on-chip map is the durable one.
func LoadDurable(r io.Reader, cfg config.Config, runtime Options) (*Controller, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, snapRead(err, "snapshot magic")
	}
	if string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupted, magic)
	}
	hdr := make([]uint64, 7)
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, snapRead(err, "snapshot header")
		}
	}
	if hdr[0] != snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSnapshotCorrupted, hdr[0])
	}
	scheme := config.Scheme(hdr[1])
	levels, z, blockBytes := int(hdr[2]), int(hdr[3]), int(hdr[4])
	numBlocks, verSeq := hdr[5], uint32(hdr[6])
	if levels < 1 || levels > 30 || z < 1 || z > 64 || blockBytes < 8 || blockBytes > 1<<16 {
		return nil, fmt.Errorf("%w: implausible geometry L=%d Z=%d block=%d", ErrSnapshotCorrupted, levels, z, blockBytes)
	}
	if numBlocks == 0 || numBlocks > oram.NewTree(levels, z).Slots() {
		return nil, fmt.Errorf("%w: implausible block count %d", ErrSnapshotCorrupted, numBlocks)
	}
	if !scheme.Policy().Storable() {
		return nil, fmt.Errorf("%w: scheme %v has no snapshot", ErrSnapshotCorrupted, scheme)
	}
	// Read the whole body before building anything, so that what is
	// allocated follows the bytes present, never the header's counts.
	t := oram.NewTree(levels, z)
	slotBytes := 32 + blockBytes
	slotsAt := 4 * int64(numBlocks)
	need := slotsAt + int64(t.Slots())*int64(slotBytes) + 4
	body, err := io.ReadAll(io.LimitReader(br, need))
	if err != nil {
		return nil, snapRead(err, "snapshot body")
	}
	if int64(len(body)) < need {
		return nil, fmt.Errorf("%w: %d of %d body bytes", ErrSnapshotTruncated, len(body), need)
	}
	for a := uint64(0); a < numBlocks; a++ {
		if leaf := binary.LittleEndian.Uint32(body[4*a:]); uint64(leaf) >= t.Leaves() {
			return nil, fmt.Errorf("%w: leaf %d out of range for addr %d", ErrSnapshotCorrupted, leaf, a)
		}
	}
	if rootLen := binary.LittleEndian.Uint32(body[need-4:]); rootLen != 0 {
		return nil, fmt.Errorf("%w: root length %d, want 0", ErrSnapshotCorrupted, rootLen)
	}
	cfg.BlockBytes, cfg.Z = blockBytes, z
	runtime.NumBlocks, runtime.Levels = numBlocks, levels
	c, err := New(scheme, cfg, runtime)
	if err != nil {
		return nil, err
	}
	// Durable position map.
	for a := oram.Addr(0); uint64(a) < numBlocks; a++ {
		leaf := oram.Leaf(binary.LittleEndian.Uint32(body[4*a:]))
		c.durable.Put(a, leaf)
		c.ORAM.PosMap.Put(a, leaf)
	}
	// Sealed tree image.
	for i, slot := uint64(0), body[slotsAt:]; i < t.Slots(); i, slot = i+1, slot[slotBytes:] {
		c.ORAM.Image.PutSlot(i/uint64(z), int(i%uint64(z)), oram.Slot{
			IV1:          binary.LittleEndian.Uint64(slot),
			IV2:          binary.LittleEndian.Uint64(slot[8:]),
			SealedHeader: append([]byte(nil), slot[16:32]...),
			SealedData:   append([]byte(nil), slot[32:slotBytes]...),
		})
	}
	c.ORAM.SetVerSeq(verSeq)
	c.counters.Inc("snapshot.loads")
	return c, nil
}
