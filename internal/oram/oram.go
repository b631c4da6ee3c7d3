package oram

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cryptoeng"
	"repro/internal/rng"
)

// Op is the request type of a memory access.
type Op int

const (
	// OpRead returns the block's current value.
	OpRead Op = iota
	// OpWrite replaces the block's value.
	OpWrite
)

func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Controller holds one Path ORAM tree's state — geometry, sealed image,
// stash, position map, crypto engine, leaf RNG and the IV and
// seal-version cursors — and the greedy placement rule
// (PlanEvictionInto). It runs no accesses:
// internal/core is the one access engine, over the data tree and every
// recursive PosMap tree alike.
type Controller struct {
	Tree   Tree
	Image  *Image
	Stash  *Stash
	PosMap *PosMap
	Engine *cryptoeng.Engine

	rng *rng.Rand
	// iv is the IV counter (see NextIV). It is a field, not a
	// closure over a heap cell: the eviction draws 2*Z*(L+1) IVs per
	// access and NextIV must inline.
	iv     uint64
	nReal  uint64
	verSeq uint32
}

// Params bundles the knobs for constructing a functional ORAM.
type Params struct {
	Levels       int
	Z            int
	BlockBytes   int
	StashEntries int
	NumBlocks    uint64 // logical blocks (must fit the tree at <=100% util)
	Seed         uint64
	Key          []byte // 16-byte AES key; nil selects a fixed test key
	// Storage, when non-nil, backs the tree image instead of process
	// memory. New builds the initial image on it (sealed into it at the
	// first MaterializePending); NewAttached expects it to already hold
	// a recovered image.
	Storage Storage
}

// DefaultKey is the AES key used when Params.Key is nil.
var DefaultKey = []byte("ps-oram-repro-k1")

// Validate checks parameter sanity.
func (p Params) Validate() error {
	t := NewTree(p.Levels, p.Z)
	if p.NumBlocks == 0 || p.NumBlocks > t.Slots() {
		return fmt.Errorf("oram: %d blocks do not fit a tree with %d slots", p.NumBlocks, t.Slots())
	}
	if p.NumBlocks > math.MaxUint32 {
		// The image's per-bucket record keeps a header's address in 32 bits.
		return fmt.Errorf("oram: %d blocks exceed the 32-bit address space", p.NumBlocks)
	}
	if float64(p.NumBlocks) > 0.95*float64(t.Slots()) {
		// The paper runs at 50% utilization to keep stash occupancy
		// small; we allow up to 95% so the stash-pressure experiment can
		// measure why (beyond that, initialization itself can fail).
		return fmt.Errorf("oram: utilization %d/%d exceeds 95%%; raise Levels", p.NumBlocks, t.Slots())
	}
	if p.StashEntries <= t.PathBlocks() {
		return fmt.Errorf("oram: stash (%d) must exceed one path (%d)", p.StashEntries, t.PathBlocks())
	}
	if p.BlockBytes <= 0 {
		return fmt.Errorf("oram: BlockBytes must be positive")
	}
	return nil
}

// New builds a functional baseline ORAM with NumBlocks zero-initialized
// logical blocks already resident in the tree.
func New(p Params) (*Controller, error) {
	return build(p, false)
}

// NewAttached builds a controller around p.Storage without sealing or
// materializing anything: the storage already holds a recovered image.
// The PosMap starts with the usual random initialization — the caller
// (the §4.3 recovery path) owns overwriting every entry from the
// durable copy, along with restoring the seal-version cursor.
func NewAttached(p Params) (*Controller, error) {
	if p.Storage == nil {
		return nil, fmt.Errorf("oram: NewAttached requires Params.Storage")
	}
	return build(p, true)
}

func build(p Params, attach bool) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key := p.Key
	if key == nil {
		key = DefaultKey
	}
	eng, err := cryptoeng.New(key)
	if err != nil {
		return nil, err
	}
	r := rng.New(p.Seed)
	t := NewTree(p.Levels, p.Z)
	iv := r.Split().Uint64() // the IV counter's random start
	c := &Controller{
		Tree:   t,
		Stash:  NewStash(p.StashEntries),
		PosMap: NewPosMap(p.NumBlocks, t, r.Split()),
		Engine: eng,
		rng:    r.Split(),
		iv:     iv,
		nReal:  p.NumBlocks,
	}
	st := p.Storage
	if st == nil {
		st = newMemStorage(t)
	}
	if attach {
		if c.Image, err = NewImageOn(st, t, eng, p.BlockBytes); err != nil {
			return nil, err
		}
		return c, nil
	}
	if c.Image, err = NewImageInto(st, t, eng, p.BlockBytes, c.NextIV); err != nil {
		return nil, err
	}
	// Place the initial blocks on their mapped paths. Oversubscribed
	// paths (possible above ~50% utilization) leave blocks over: they
	// start life in the stash.
	for _, a := range c.Image.InitBlocks(p.NumBlocks, c.PosMap.Lookup, c.NextIV) {
		c.Stash.Put(&StashBlock{Addr: a, Leaf: c.PosMap.Lookup(a), Data: make([]byte, p.BlockBytes), Dirty: true})
	}
	if c.Stash.Overflowed() {
		c.Image.Close()
		return nil, fmt.Errorf("oram: initial placement overflowed the stash (%d blocks; utilization too high): %w", c.Stash.Len(), ErrStashOverflow)
	}
	return c, nil
}

// NumBlocks returns the logical block count.
func (c *Controller) NumBlocks() uint64 { return c.nReal }

// RandomLeaf draws a fresh uniform leaf.
func (c *Controller) RandomLeaf() Leaf { return Leaf(c.rng.Uint64n(c.Tree.Leaves())) }

// NextIV draws the next IV: monotonically unique under the controller's
// key. IVs must never repeat under one key; a 64-bit counter starting at
// a random offset suffices for simulation lifetimes.
func (c *Controller) NextIV() uint64 {
	c.iv++
	return c.iv
}

// DrawIVs advances the IV counter by n and returns its value before the
// advance: the i-th (0-based) of those n draws is base+i+1, what the
// i-th of n NextIV calls would have returned.
func (c *Controller) DrawIVs(n int) (base uint64) {
	base = c.iv
	c.iv += uint64(n)
	return base
}

// NextVer returns a fresh seal version (monotonically increasing).
func (c *Controller) NextVer() uint32 {
	c.verSeq++
	return c.verSeq
}

// ErrSealVersionsExhausted reports a controller whose 32-bit seal-version
// cursor is about to wrap. Freshness between two tree copies of one
// block is decided by comparing versions, so past a wrap a superseded
// backup could beat the fresh copy: the controller refuses further
// accesses instead (wrapped; test with errors.Is).
var ErrSealVersionsExhausted = errors.New("seal versions exhausted")

// sealVersionEvictions bounds the evictions one access can run, each
// drawing at most a path's worth of versions: the access's own, a
// temporary-PosMap drain ahead of it, the recursive schemes' three
// force-evict passes — and slack.
const sealVersionEvictions = 8

// CheckSealVersions returns ErrSealVersionsExhausted once a version
// cursor over tree t is within one access's worth of draws of wrapping.
// Access paths call it on entry, before anything is mutated.
func CheckSealVersions(cursor uint32, t Tree) error {
	if math.MaxUint32-cursor < uint32(sealVersionEvictions*t.PathBlocks()) {
		return fmt.Errorf("oram: %w (cursor %d)", ErrSealVersionsExhausted, cursor)
	}
	return nil
}

// CheckSealVersions is the package-level check on c's own cursor.
func (c *Controller) CheckSealVersions() error { return CheckSealVersions(c.verSeq, c.Tree) }

// VerSeq returns the current seal-version cursor (snapshot support).
func (c *Controller) VerSeq() uint32 { return c.verSeq }

// SetVerSeq restores the seal-version cursor after loading a snapshot;
// it must be at least the highest version sealed into the image or
// freshness comparisons would invert.
func (c *Controller) SetVerSeq(v uint32) {
	if v > c.verSeq {
		c.verSeq = v
	}
}

// TargetLeaf returns the leaf a stash block is evicted toward: backups
// go to their recorded backup leaf, live blocks to their current leaf.
func (b *StashBlock) TargetLeaf() Leaf {
	if b.Backup {
		return b.BackupLeaf
	}
	return b.Leaf
}

// PlanEvictionInto computes the greedy Path ORAM eviction onto path l
// for an explicitly ordered candidate list: each candidate is placed at
// the deepest level of the path its target leaf allows, earlier
// candidates first. It writes the plan into caller-provided rows ((level,
// slot) -> block; nil means dummy) and used counters: plan must have L+1
// rows of Z slots each, and used must have L+1 entries; both are fully
// overwritten. The candidates that did not fit (they stay in the stash)
// are appended to the (emptied) unplaced slice and returned.
//
// The order is the crash-consistency policy knob: the PS-ORAM controller
// in internal/core orders path-origin blocks and backups first (they
// must return to this path or a partial write-back loses them — Fig. 3),
// then blocks with pending PosMap remaps, then the rest.
func (c *Controller) PlanEvictionInto(l Leaf, ordered []*StashBlock, plan [][]*StashBlock, used []int, unplaced []*StashBlock) []*StashBlock {
	t := c.Tree
	for k := 0; k <= t.L; k++ {
		row := plan[k]
		for z := range row {
			row[z] = nil
		}
		used[k] = 0
	}
	unplaced = unplaced[:0]
	for _, b := range ordered {
		deepest := t.IntersectLevel(l, b.TargetLeaf())
		placed := false
		for k := deepest; k >= 0 && !placed; k-- {
			if used[k] < t.Z {
				plan[k][used[k]] = b
				used[k]++
				placed = true
			}
		}
		if !placed {
			unplaced = append(unplaced, b)
		}
	}
	return unplaced
}

// Peek returns addr's current value without performing an ORAM access
// (test/diagnostic use only; real hardware would never do this).
func (c *Controller) Peek(addr Addr) ([]byte, error) {
	return c.PeekWith(addr, func(a Addr) Leaf { return c.PosMap.Lookup(a) })
}

// PeekWith is Peek with an injectable leaf oracle. Among several
// matching tree copies (leaf collisions between a block and its
// backups), the highest seal version is the fresh one. The path's
// headers are read in place (Image.OpenHeader); only the returned
// payload is copied.
func (c *Controller) PeekWith(addr Addr, currentLeaf func(Addr) Leaf) ([]byte, error) {
	if b := c.Stash.Get(addr); b != nil {
		return append([]byte(nil), b.Data...), nil
	}
	l := currentLeaf(addr)
	var bestBucket uint64
	bestZ, bestVer, found := 0, uint32(0), false
	for k := 0; k <= c.Tree.L; k++ {
		bucket := c.Tree.PathNode(l, k)
		for z := 0; z < c.Tree.Z; z++ {
			a, leaf, ver, err := c.Image.OpenHeader(bucket, z)
			if err != nil {
				return nil, err
			}
			if a == addr && leaf == l && (!found || ver > bestVer) {
				bestBucket, bestZ, bestVer, found = bucket, z, ver, true
			}
		}
	}
	if found {
		return c.Image.Data(bestBucket, bestZ), nil
	}
	return nil, fmt.Errorf("oram: block %d unreachable (mapped to leaf %d but absent)", addr, l)
}
