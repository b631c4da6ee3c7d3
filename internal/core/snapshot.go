package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/integrity"
	"repro/internal/oram"
)

// This file implements durable-state snapshots: what NVM physically
// holds. Saving writes the sealed tree image, the durable position map,
// the seal-version cursor, and (when integrity is on) the trusted root.
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
	// structurally invalid or fail the integrity check.
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
	// Trusted integrity root (zero-length marker when disabled).
	root := []byte{}
	if c.Merkle != nil {
		root = c.Merkle.Root()
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(root))); err != nil {
		return err
	}
	if _, err := bw.Write(root); err != nil {
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
// on-chip map is the durable one. With cfg.Integrity set, the image is
// re-hashed and checked against the snapshot's trusted root — tampering
// with the stored image fails the load.
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
	cfg.BlockBytes = blockBytes
	cfg.Z = z

	runtime.NumBlocks, runtime.Levels = numBlocks, levels
	c, err := New(scheme, cfg, runtime)
	if err != nil {
		return nil, err
	}
	// Durable position map.
	for a := oram.Addr(0); uint64(a) < numBlocks; a++ {
		var leaf uint32
		if err := binary.Read(br, binary.LittleEndian, &leaf); err != nil {
			return nil, snapRead(err, fmt.Sprintf("posmap entry %d", a))
		}
		if uint64(leaf) >= c.ORAM.Tree.Leaves() {
			return nil, fmt.Errorf("%w: leaf %d out of range for addr %d", ErrSnapshotCorrupted, leaf, a)
		}
		c.durable.Put(a, oram.Leaf(leaf))
		c.ORAM.PosMap.Put(a, oram.Leaf(leaf))
	}
	// Sealed tree image.
	t := c.ORAM.Tree
	for b := uint64(0); b < t.Buckets(); b++ {
		for zi := 0; zi < t.Z; zi++ {
			var s oram.Slot
			if err := binary.Read(br, binary.LittleEndian, &s.IV1); err != nil {
				return nil, snapRead(err, fmt.Sprintf("slot (%d,%d)", b, zi))
			}
			if err := binary.Read(br, binary.LittleEndian, &s.IV2); err != nil {
				return nil, snapRead(err, fmt.Sprintf("slot (%d,%d)", b, zi))
			}
			s.SealedHeader = make([]byte, 16)
			if _, err := io.ReadFull(br, s.SealedHeader); err != nil {
				return nil, snapRead(err, fmt.Sprintf("slot (%d,%d) header", b, zi))
			}
			s.SealedData = make([]byte, blockBytes)
			if _, err := io.ReadFull(br, s.SealedData); err != nil {
				return nil, snapRead(err, fmt.Sprintf("slot (%d,%d) data", b, zi))
			}
			c.ORAM.Image.PutSlot(b, zi, s)
		}
	}
	c.ORAM.SetVerSeq(verSeq)
	// Trusted root.
	var rootLen uint32
	if err := binary.Read(br, binary.LittleEndian, &rootLen); err != nil {
		return nil, snapRead(err, "root length")
	}
	if rootLen > integrity.HashSize {
		return nil, fmt.Errorf("%w: implausible root length %d", ErrSnapshotCorrupted, rootLen)
	}
	savedRoot := make([]byte, rootLen)
	if _, err := io.ReadFull(br, savedRoot); err != nil {
		return nil, snapRead(err, "trusted root")
	}
	if c.Merkle != nil {
		// Rebuild the hash tree over the loaded image and verify it
		// against the trusted root that was saved from the persistence
		// domain: a tampered snapshot fails here.
		c.Merkle = integrity.New(c.ORAM.Tree, c.bucketSlots)
		if rootLen == 0 {
			return nil, fmt.Errorf("%w: cfg.Integrity set but snapshot carries no trusted root", ErrSnapshotCorrupted)
		}
		if !bytes.Equal(c.Merkle.Root(), savedRoot) {
			return nil, fmt.Errorf("%w: image does not match the trusted root", ErrSnapshotCorrupted)
		}
	}
	c.counters.Inc("snapshot.loads")
	return c, nil
}
