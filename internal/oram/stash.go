package oram

import (
	"errors"
	"fmt"
)

// ErrStashOverflow is the typed error every access path surfaces (wrapped
// with context via %w) when an access or initial placement leaves the
// stash above its configured capacity. The protocols treat overflow as
// fatal rather than silently growing the stash; callers detect it with
// errors.Is(err, ErrStashOverflow).
var ErrStashOverflow = errors.New("stash overflow")

// StashBlock is a block buffered in the on-chip stash, with the
// bookkeeping the (PS-)ORAM protocols need.
type StashBlock struct {
	Addr Addr
	Leaf Leaf // current (possibly remapped) leaf
	// Ver is the seal version of the copy this block was loaded from
	// (fresher copies carry higher versions; see oram.Block.Ver).
	Ver  uint32
	Data []byte
	// Dirty marks that the value differs from any NVM copy.
	Dirty bool
	// Backup marks the shadow copy created by PS-ORAM step 4: it must be
	// evicted to BackupLeaf's path in the same access and never served
	// to the program.
	Backup     bool
	BackupLeaf Leaf
	// PendingRemap marks that the block's remap (its temporary-PosMap
	// entry) has not been merged into the durable PosMap yet.
	PendingRemap bool
	// RemapSeq orders pending remaps (oldest first) for eviction
	// priority.
	RemapSeq uint64
	// OriginEpoch tags the access that loaded this block from the tree.
	// Blocks loaded by the in-flight access must be evicted back onto
	// the same path (crash consistency, Fig. 3); the controller compares
	// this tag against its access epoch.
	OriginEpoch uint64
	// OriginBucket/OriginSlot record where the block was loaded from
	// (valid for the OriginEpoch access). The ordered small-WPQ eviction
	// places clean origin blocks back into their exact slots, which
	// eliminates displacement cycles at the source.
	OriginBucket uint64
	OriginSlot   int
}

// Stash is the on-chip block buffer. Real blocks are keyed by address;
// backup blocks live alongside (a backup may share an address with the
// live block, so backups are stored separately).
//
// The live set is a dense slice under an addrIndex — the fixed-size
// associative table of the paper's controller (200 entries in Table 3),
// not a general-purpose map: a lookup is one multiply and one or two
// probes of a table that stays in L1. live[p] is the block whose address
// is at position p of idx.
type Stash struct {
	cap     int
	idx     addrIndex
	live    []*StashBlock
	backups []*StashBlock
}

// NewStash creates a stash with the given capacity (entries).
func NewStash(capacity int) *Stash {
	if capacity < 1 {
		panic(fmt.Sprintf("oram: stash capacity %d must be positive", capacity))
	}
	return &Stash{cap: capacity, idx: newAddrIndex(capacity), live: make([]*StashBlock, 0, capacity)}
}

// Capacity returns the configured entry limit.
func (s *Stash) Capacity() int { return s.cap }

// Len returns the current occupancy including backups.
func (s *Stash) Len() int { return len(s.live) + len(s.backups) }

// Overflowed reports whether occupancy exceeds capacity. The protocols
// check this after each access; overflow aborts the simulation (it would
// be a correctness bug or a pathological parameter choice).
func (s *Stash) Overflowed() bool { return s.Len() > s.cap }

// Get returns the live (non-backup) block at addr, or nil.
func (s *Stash) Get(addr Addr) *StashBlock {
	if p := s.idx.find(addr); p >= 0 {
		return s.live[p]
	}
	return nil
}

// Put inserts or replaces the live block at b.Addr.
func (s *Stash) Put(b *StashBlock) {
	if b.Backup {
		panic("oram: Put called with a backup block; use PutBackup")
	}
	if b.Addr == DummyAddr {
		panic("oram: dummy block inserted into stash")
	}
	if p := s.idx.find(b.Addr); p >= 0 {
		s.live[p] = b
		return
	}
	s.idx.add(b.Addr)
	s.live = append(s.live, b)
}

// PutBackup inserts a backup block.
func (s *Stash) PutBackup(b *StashBlock) {
	if !b.Backup {
		panic("oram: PutBackup called with a non-backup block")
	}
	s.backups = append(s.backups, b)
}

// Remove deletes the live block at addr (no-op if absent).
func (s *Stash) Remove(addr Addr) {
	p := s.idx.find(addr)
	if p < 0 {
		return
	}
	s.idx.remove(p)
	s.live = swapRemove(s.live, p)
}

// RemoveBackup deletes the given backup block.
func (s *Stash) RemoveBackup(b *StashBlock) {
	for i, x := range s.backups {
		if x == b {
			s.backups = append(s.backups[:i], s.backups[i+1:]...)
			return
		}
	}
}

// Live returns all live blocks (in no order callers may rely on).
func (s *Stash) Live() []*StashBlock { return s.AppendLive(nil) }

// AppendLive appends all live blocks to dst and returns it — Live
// without the per-call allocation.
func (s *Stash) AppendLive(dst []*StashBlock) []*StashBlock { return append(dst, s.live...) }

// Backups returns all backup blocks.
func (s *Stash) Backups() []*StashBlock { return s.backups }

// Reset empties the stash while keeping the backing storage of the
// table, the live slice and the backup slice for reuse, so a
// steady-state clear/refill cycle does not allocate.
func (s *Stash) Reset() {
	s.idx.reset()
	clear(s.live)
	s.live = s.live[:0]
	s.backups = s.backups[:0]
}
