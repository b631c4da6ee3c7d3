// Package sim is the full-system timing simulator behind every figure in
// §5.2: an in-order core driving an ORAM-protected NVM memory system,
// per evaluated scheme, over the Table 4 workloads.
//
// Unlike internal/core (the value-accurate functional simulator used to
// prove crash consistency), sim runs at the paper's tree scale by
// tracking protocol state abstractly: block positions and leaf labels
// without payload bytes. Both layers execute the same protocol — the
// functional layer validates it, this layer prices it.
//
// Concurrency: a System is single-threaded (it models one memory
// controller), but independent Systems share no mutable state —
// Simulate constructs every stateful component (tree maps, memory
// controller, NVM devices, RNG, trace generator) per call, and the
// packages below (mem, nvm, cache, rng, trace) keep all state per
// instance. internal/sweep relies on this to fan grids of runs across
// goroutines; the determinism tests there and `go test -race` guard the
// property.
package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/oram"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Result aggregates one run.
type Result struct {
	Scheme   config.Scheme
	Workload string

	Cycles   uint64
	Instrs   uint64
	Accesses uint64

	// NVM traffic (device commands).
	Reads, Writes uint64
	BytesRead     uint64
	BytesWritten  uint64
	EnergyPJ      uint64

	// Protocol statistics.
	DirtyEntries  uint64 // PosMap entries persisted (PS/Naïve)
	ChainBlocks   uint64 // recursive posmap path blocks touched
	PendingPeak   int    // max blocks awaiting entry merge
	WearImbalance float64

	// Access latency distribution in core cycles.
	LatencyMean float64
	LatencyP50  uint64
	LatencyP99  uint64
	LatencyMax  uint64
}

// Slowdown returns r.Cycles / base.Cycles.
func (r Result) Slowdown(base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}

// leafUnset marks an address that has never been remapped; its live
// leaf is still initialLeaf(addr). Tree heights are capped at 26, so
// no valid leaf collides with it.
const leafUnset = ^oram.Leaf(0)

// System is the assembled timing model for one scheme.
type System struct {
	policy config.Policy // the scheme's
	cfg    config.Config
	tree   oram.Tree
	memc   *mem.Controller
	r      *rng.Rand

	// Abstract protocol state, dense-indexed: Serve reduces addresses
	// mod NumBlocks and buckets are heap-numbered 0..Buckets-1, so flat
	// slices replace per-access map churn on the hot path.
	leafOf    []oram.Leaf // per addr: live leaf, leafUnset if unmapped
	counts    []uint8     // tree occupancy per bucket
	residency []int32     // per addr: bucket tracking it, -1 = none
	// Tracked blocks per bucket as intrusive FIFO lists. Traversal
	// order equals the former map-of-slices append order, which the
	// greedy eviction (and therefore the golden metrics) depends on.
	bucketHead   []int32        // per bucket: first tracked addr, -1 = empty
	bucketTail   []int32        // per bucket: last tracked addr
	nextInBucket []int32        // per addr: next addr in its bucket list, -1 = end
	pending      []pendingBlock // stash blocks awaiting entry merge
	seedHash     uint64
	numBlocks    uint64

	// Reused per-access scratch and the precomputed path-index table:
	// steady-state accesses must not allocate.
	pathIdx    *oram.PathIndex
	pathBuf    []uint64     // path of the access being served
	auxPathBuf []uint64     // posmap-tree chain path
	stashBuf   []stashEntry // updateOccupancy working set
	evictBuf   []evictEntry // orderedEvict working set

	// onchipTiming, when non-nil, prices the FullNVM schemes' on-chip
	// stash/PosMap built from NVM. Ops are modeled as half-pipelined
	// column accesses: the structure is a dedicated on-chip array (no
	// bus sharing with main memory), but PCM/STT write pulses only
	// partially overlap, so each op costs half its column latency.
	onchipTiming *config.NVMTiming
	onchipReads  uint64
	onchipWrites uint64

	// Recursion: level-1 geometry (always accessed) and upper-level
	// geometry behind the PLB.
	rec struct {
		l1       oram.Tree
		l1Idx    *oram.PathIndex
		l1Seen   []bool // per level-1 block: position known
		upper    oram.Tree
		upperIdx *oram.PathIndex
		// upperOnChip: the second posmap level fits the on-chip posmap
		// budget, terminating the recursion after level 1.
		upperOnChip bool
		plb         *cache.Cache
		entries     uint64 // data entries per posmap block
	}

	now      mem.Cycle
	res      Result
	pendPeak int
	latHist  stats.Histogram
}

type pendingBlock struct {
	addr oram.Addr
	leaf oram.Leaf
}

// stashEntry is one block in updateOccupancy's abstract stash; the
// working slice lives on the System (stashBuf) and is reused across
// accesses.
type stashEntry struct {
	addr    uint64
	leaf    oram.Leaf
	origin  bool
	pending bool
}

// evictEntry is one staged write in orderedEvict's working set
// (evictBuf, reused across accesses).
type evictEntry struct {
	loc    mem.Location
	posmap bool
}

// NewSystem builds the timing model. levels selects the tree height
// (the paper's Table 3 uses 23; smaller values keep test runs fast
// without changing any scheme ordering, since every scheme pays the same
// path length).
func NewSystem(scheme config.Scheme, cfg config.Config, levels int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if levels < 4 || levels > 26 {
		return nil, fmt.Errorf("sim: tree height %d out of range [4,26]", levels)
	}
	t := oram.NewTree(levels, cfg.Z)
	s := &System{
		policy:   scheme.Policy(),
		cfg:      cfg,
		tree:     t,
		memc:     mem.New(cfg),
		r:        rng.New(cfg.Seed ^ 0x5157),
		counts:   make([]uint8, t.Buckets()),
		seedHash: cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		pathIdx:  oram.NewPathIndex(t),
		pathBuf:  make([]uint64, 0, t.L+1),
	}
	s.numBlocks = uint64(float64(t.Slots()) * cfg.Utilization)
	// The dense per-address state is indexed by int32 list links; the
	// levels cap above keeps NumBlocks far below that, but guard anyway.
	if s.numBlocks >= 1<<31 {
		return nil, fmt.Errorf("sim: %d blocks exceed dense-index range", s.numBlocks)
	}
	s.leafOf = make([]oram.Leaf, s.numBlocks)
	s.residency = make([]int32, s.numBlocks)
	s.nextInBucket = make([]int32, s.numBlocks)
	for i := range s.leafOf {
		s.leafOf[i] = leafUnset
		s.residency[i] = -1
		s.nextInBucket[i] = -1
	}
	s.bucketHead = make([]int32, t.Buckets())
	s.bucketTail = make([]int32, t.Buckets())
	for i := range s.bucketHead {
		s.bucketHead[i] = -1
		s.bucketTail[i] = -1
	}
	s.res.Scheme = scheme
	if t, ok := s.policy.OnChip.Timing(); ok {
		s.onchipTiming = &t
	}
	s.initOccupancy()
	if s.policy.Recursive {
		s.initRecursion()
	}
	return s, nil
}

// NumBlocks returns the logical capacity of the simulated tree.
func (s *System) NumBlocks() uint64 { return s.numBlocks }

// initialLeaf derives the pre-remap leaf of an address.
func (s *System) initialLeaf(addr uint64) oram.Leaf {
	h := (addr + 1) * 0x9e3779b97f4a7c15
	h ^= s.seedHash
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return oram.Leaf(h % s.tree.Leaves())
}

// initOccupancy seeds the tree with NumBlocks anonymous real blocks,
// each placed greedily (deepest available) on its initial leaf's path —
// the same placement the functional layer materializes with real data.
func (s *System) initOccupancy() {
	n := s.NumBlocks()
	for a := uint64(0); a < n; a++ {
		l := s.initialLeaf(a)
		b := s.tree.LeafBucket(l)
		for {
			if s.counts[b] < uint8(s.cfg.Z) {
				s.counts[b]++
				break
			}
			if b == 0 {
				// Root full too: drop (cannot happen below ~100% util).
				break
			}
			b = (b - 1) / 2
		}
	}
}

// initRecursion sizes the posmap chain for the data tree: level 1 maps
// data addresses (accessed every time, as Rcr-Baseline persists the
// PosMap on each access); all upper levels sit behind the PLB.
func (s *System) initRecursion() {
	// Posmap blocks use Freecursive's compressed-leaf format: a 64B
	// block packs 32 labels (the functional layer in internal/oram uses
	// plain 4-byte entries instead — compression is a timing-side
	// capacity optimization, not a correctness mechanism).
	s.rec.entries = uint64(min(s.cfg.BlockBytes/2, 32))
	l1Blocks := (s.NumBlocks() + s.rec.entries - 1) / s.rec.entries
	s.rec.l1 = treeFor(l1Blocks, s.cfg)
	upperBlocks := (l1Blocks + s.rec.entries - 1) / s.rec.entries
	s.rec.upperOnChip = upperBlocks*uint64(s.cfg.BlockBytes) <= uint64(s.cfg.OnChipPosMapBytes)
	s.rec.upper = treeFor(upperBlocks, s.cfg)
	s.rec.l1Idx = oram.NewPathIndex(s.rec.l1)
	s.rec.upperIdx = oram.NewPathIndex(s.rec.upper)
	s.rec.l1Seen = make([]bool, l1Blocks)
	// The PLB holds upper-level posmap blocks; Table 3's C_TPos-class
	// budget gives it cfg.PLBEntries block slots.
	s.rec.plb = cache.New("PLB", s.cfg.PLBEntries*s.cfg.BlockBytes, 4, s.cfg.BlockBytes, 1, 1)
}

func treeFor(blocks uint64, cfg config.Config) oram.Tree {
	levels := 2
	for {
		t := oram.NewTree(levels, cfg.Z)
		if float64(t.Slots())*cfg.Utilization >= float64(blocks) {
			return t
		}
		levels++
	}
}

// Serve implements cpu.Memory: one LLC miss becomes one ORAM access (or
// one plain NVM access for the NonORAM scheme).
func (s *System) Serve(addr uint64, write bool) (uint64, error) {
	addr %= s.NumBlocks()
	start := s.now
	if !s.policy.ORAM {
		s.plainAccess(addr, write)
		s.res.Accesses++
		lat := uint64(s.now - start)
		s.latHist.Observe(lat)
		return lat, nil
	}
	if err := s.oramAccess(addr, write); err != nil {
		return 0, err
	}
	s.res.Accesses++
	if len(s.pending) > s.pendPeak {
		s.pendPeak = len(s.pending)
	}
	lat := uint64(s.now - start)
	s.latHist.Observe(lat)
	return lat, nil
}

// plainAccess is the non-ORAM reference: a single block read (plus a
// posted write-back for stores).
func (s *System) plainAccess(addr uint64, write bool) {
	bucket := addr / uint64(s.cfg.Z)
	loc := s.memc.TreeBlockLocation(bucket%s.tree.Buckets(), int(addr%uint64(s.cfg.Z)))
	done := s.memc.ReadBlock(loc, s.now)
	if write {
		s.memc.WriteBlockPosted(loc, done)
	}
	s.now = done
}

// currentLeaf returns the address's live leaf.
func (s *System) currentLeaf(addr uint64) oram.Leaf {
	if l := s.leafOf[addr]; l != leafUnset {
		return l
	}
	return s.initialLeaf(addr)
}

// oramAccess prices one full ORAM access under the scheme.
func (s *System) oramAccess(addr uint64, write bool) error {
	l := s.currentLeaf(addr)
	lNew := oram.Leaf(s.r.Uint64n(s.tree.Leaves()))

	// Recursive position chain first (the data leaf comes from it).
	if s.policy.Recursive {
		s.chainAccess(addr)
	}

	// FullNVM: PosMap lookup + update on the on-chip NVM.
	if s.onchipTiming != nil {
		s.onchipOp(nvm.Read)
		s.onchipOp(nvm.Write)
	}

	// Step 3: read the path.
	s.pathBuf = s.pathIdx.AppendPath(s.pathBuf, l)
	path := s.pathBuf
	var loadDone mem.Cycle
	for _, bucket := range path {
		for z := 0; z < s.cfg.Z; z++ {
			loc := s.memc.TreeBlockLocation(bucket, z)
			if d := s.memc.ReadBlock(loc, s.now); d > loadDone {
				loadDone = d
			}
		}
	}
	if loadDone > s.now {
		s.now = loadDone
	}
	// FullNVM: every fetched slot is written into the NVM stash ("every
	// ORAM access needs to transfer massive data from the NVM-ORAM tree
	// to the on-chip NVM stash", §5.2.2 — this is what makes FullNVM's
	// write traffic +111%). Stash fills overlap the path read, but the
	// on-chip array's write bandwidth (half-pipelined write pulses) is
	// about half the path-read bandwidth, so half the fills serialize
	// after the load — which is why FullNVM pays so dearly (Fig. 5a).
	if s.onchipTiming != nil {
		for i := 0; i < s.tree.PathBlocks(); i++ {
			if i%2 == 0 {
				s.onchipOp(nvm.Write) // serialized tail
			} else {
				s.onchipWrites++ // overlapped with the path read
			}
		}
	}
	s.now += 32 // decrypt pipeline fill (Table 3 AES latency)

	// Protocol bookkeeping: blocks on the path.
	evictedPending, target := s.updateOccupancy(addr, l, lNew, path)

	s.now += 32 // encrypt pipeline fill for the write-back

	// Step 5: write the path back, per the scheme's persistence rules.
	if s.policy.WPQAtomic() {
		if err := s.persistentEvict(path, evictedPending, target); err != nil {
			return err
		}
	} else {
		s.postedEvict(path)
		if s.onchipTiming != nil {
			for i := 0; i < s.tree.PathBlocks()/2; i++ {
				s.onchipOp(nvm.Read)
			}
		}
	}
	_ = write
	return nil
}

// updateOccupancy moves tracked blocks through the abstract stash for
// one access and returns (pending blocks evicted this access, whether
// the target itself evicted).
func (s *System) updateOccupancy(addr uint64, l, lNew oram.Leaf, path []uint64) (int, bool) {
	z := uint8(s.cfg.Z)
	// Tracked blocks on the path come off into the stash, in bucket
	// list order (the former append order).
	stash := s.stashBuf[:0]
	for _, bucket := range path {
		for a := s.bucketHead[bucket]; a != -1; a = s.nextInBucket[a] {
			stash = append(stash, stashEntry{addr: uint64(a), leaf: s.currentLeaf(uint64(a)), origin: true})
			s.residency[a] = -1
			if s.counts[bucket] > 0 {
				s.counts[bucket]--
			}
		}
		s.bucketHead[bucket] = -1
		s.bucketTail[bucket] = -1
	}
	// The target: it is now either already in the stash (tracked on this
	// path), pending from an earlier access, or an anonymous first-touch
	// copy somewhere on this path (sample the deepest occupied bucket).
	inStash := false
	for _, e := range stash {
		if e.addr == addr {
			inStash = true
			break
		}
	}
	if s.residency[addr] == -1 && !inStash && !s.isPending(addr) {
		for i := len(path) - 1; i >= 0; i-- {
			if s.counts[path[i]] > 0 {
				s.counts[path[i]]--
				break
			}
		}
		stash = append(stash, stashEntry{addr: addr, leaf: l, origin: true})
	}
	// Pending blocks join the eviction candidates.
	for _, p := range s.pending {
		stash = append(stash, stashEntry{addr: uint64(p.addr), leaf: p.leaf, pending: true})
	}
	s.pending = s.pending[:0]

	// Remap the target.
	s.leafOf[addr] = lNew
	for i := range stash {
		if stash[i].addr == addr {
			stash[i].leaf = lNew
			stash[i].pending = true
		}
	}

	// Greedy eviction: origin blocks first (must return), then pending
	// (oldest first — slice order), deepest placement.
	place := func(e stashEntry) bool {
		deepest := s.tree.IntersectLevel(l, e.leaf)
		for k := deepest; k >= 0; k-- {
			b := path[k]
			if s.counts[b] < z {
				s.counts[b]++
				s.residency[e.addr] = int32(b)
				// Append to the bucket's FIFO list.
				a := int32(e.addr)
				if tail := s.bucketTail[b]; tail == -1 {
					s.bucketHead[b] = a
				} else {
					s.nextInBucket[tail] = a
				}
				s.bucketTail[b] = a
				s.nextInBucket[a] = -1
				return true
			}
		}
		return false
	}
	evictedPending := 0
	targetEvicted := false
	for _, e := range stash {
		if !e.origin || e.pending {
			continue
		}
		place(e) // origin, clean: geometry guarantees placement
	}
	for _, e := range stash {
		if !e.pending {
			continue
		}
		if place(e) {
			evictedPending++
			if e.addr == addr {
				targetEvicted = true
			}
		} else {
			s.pending = append(s.pending, pendingBlock{addr: oram.Addr(e.addr), leaf: e.leaf})
		}
	}
	s.stashBuf = stash[:0] // keep the grown capacity for the next access
	return evictedPending, targetEvicted
}

func (s *System) isPending(addr uint64) bool {
	for _, p := range s.pending {
		if uint64(p.addr) == addr {
			return true
		}
	}
	return false
}

// postedEvict writes the path through the volatile write buffer.
func (s *System) postedEvict(path []uint64) {
	proceed := s.now
	for _, bucket := range path {
		for z := 0; z < s.cfg.Z; z++ {
			loc := s.memc.TreeBlockLocation(bucket, z)
			if p, _ := s.memc.WriteBlockPosted(loc, s.now); p > proceed {
				proceed = p
			}
		}
	}
	s.now = proceed
}

// persistentEvict pushes the path plus PosMap entries through the WPQ
// batch (PS-ORAM: dirty entries only; Naïve: one per slot; Rcr-PS: the
// chain writes were already staged by chainAccess and the +1 backup
// block is implicit in the full-path write).
func (s *System) persistentEvict(path []uint64, dirty int, targetEvicted bool) error {
	// A path larger than the WPQs uses the ordered multi-batch eviction
	// (§4.2.3): same total work, split into capacity-sized atomic
	// batches committed in dependency order. The timing model prices it
	// as sequential batch commits.
	if s.tree.PathBlocks() > s.cfg.DataWPQEntries {
		return s.orderedEvict(path, dirty)
	}
	batch := s.memc.BeginBatch()
	for _, bucket := range path {
		for z := 0; z < s.cfg.Z; z++ {
			batch.AddData(s.memc.TreeBlockLocation(bucket, z))
		}
	}
	// PosMap entries persist at NVM line granularity (a 4-byte entry
	// update still costs a 64B device write), so the entry count below
	// is also the extra write-command count — the write amplification
	// that makes Naïve so expensive.
	switch {
	case s.policy.Recursive:
		// Dirty entries live inside the level-1 posmap blocks written by
		// chainAccess. The data batch additionally carries the backup
		// block of the accessed target (paper §5.2.2: Rcr-PS-ORAM "backs
		// up the accessed target data blocks every time") and the
		// Top-map entry that anchors the recovered chain.
		batch.AddData(s.memc.TreeBlockLocation(path[len(path)-1], 0))
		batch.AddPosMap(s.memc.PosMapLocation(s.r.Uint64() >> 40))
		s.res.DirtyEntries++
	case s.policy.PosMap == config.EntriesPath:
		for i, bucket := range path {
			for z := 0; z < s.cfg.Z; z++ {
				batch.AddPosMapBlock(s.memc.PosMapLocation((uint64(bucket)*uint64(s.cfg.Z) + uint64(z) + uint64(i)) * 16))
			}
		}
		s.res.DirtyEntries += uint64(s.tree.PathBlocks())
	default:
		for i := 0; i < dirty; i++ {
			batch.AddPosMapBlock(s.memc.PosMapLocation(s.r.Uint64() >> 40))
		}
		s.res.DirtyEntries += uint64(dirty)
	}
	done, err := batch.Commit(s.now)
	if err != nil {
		return fmt.Errorf("sim: eviction batch: %w", err)
	}
	s.now = done
	_ = targetEvicted
	return nil
}

// orderedEvict prices the limited-persistence-domain eviction: the path
// slots (plus PosMap entries) commit in several capacity-bounded atomic
// batches, strictly in order.
func (s *System) orderedEvict(path []uint64, dirty int) error {
	entries := s.evictBuf[:0]
	for _, bucket := range path {
		for z := 0; z < s.cfg.Z; z++ {
			entries = append(entries, evictEntry{loc: s.memc.TreeBlockLocation(bucket, z)})
		}
	}
	nPos := dirty
	switch {
	case s.policy.Recursive:
		nPos = 1
	case s.policy.PosMap == config.EntriesPath:
		nPos = s.tree.PathBlocks()
	}
	for i := 0; i < nPos; i++ {
		entries = append(entries, evictEntry{loc: s.memc.PosMapLocation(s.r.Uint64() >> 40), posmap: true})
	}
	s.res.DirtyEntries += uint64(nPos)
	cap := s.cfg.DataWPQEntries
	if s.cfg.PosMapWPQEntries < cap {
		cap = s.cfg.PosMapWPQEntries
	}
	for start := 0; start < len(entries); start += cap {
		end := start + cap
		if end > len(entries) {
			end = len(entries)
		}
		batch := s.memc.BeginBatch()
		for _, e := range entries[start:end] {
			if e.posmap {
				batch.AddPosMapBlock(e.loc)
			} else {
				batch.AddData(e.loc)
			}
		}
		done, err := batch.Commit(s.now)
		if err != nil {
			return fmt.Errorf("sim: ordered eviction batch: %w", err)
		}
		s.now = done
	}
	s.evictBuf = entries[:0]
	return nil
}

// chainAccess prices the recursive position-map walk: the level-1 path
// is read and written every access (that is how Rcr-* persists the
// PosMap); upper levels are accessed only on PLB misses.
func (s *System) chainAccess(addr uint64) {
	e := s.rec.entries
	l1Block := addr / e
	upperBlock := l1Block / e

	// Upper level: on-chip when it fits the posmap budget (recursion
	// terminated), otherwise behind the PLB.
	if !s.rec.upperOnChip {
		if r := s.rec.plb.Access(upperBlock, true); !r.Hit {
			s.chainPath(s.rec.upper, s.rec.upperIdx, 2, upperBlock)
		}
	}
	// Level 1: always.
	s.chainPath(s.rec.l1, s.rec.l1Idx, 1, l1Block)
}

// chainPath reads and writes one posmap-tree path. It runs before the
// data path is loaded (the data leaf comes out of the chain), so it may
// borrow the auxiliary path buffer.
func (s *System) chainPath(t oram.Tree, idx *oram.PathIndex, region int, block uint64) {
	leaf := oram.Leaf((block*0x9e3779b97f4a7c15 ^ s.r.Uint64()) % t.Leaves())
	s.auxPathBuf = idx.AppendPath(s.auxPathBuf, leaf)
	path := s.auxPathBuf
	var done mem.Cycle
	for _, bucket := range path {
		for z := 0; z < s.cfg.Z; z++ {
			loc := s.memc.RegionTreeLocation(region, bucket, z)
			if d := s.memc.ReadBlock(loc, s.now); d > done {
				done = d
			}
		}
	}
	if done > s.now {
		s.now = done
	}
	s.res.ChainBlocks += uint64(t.PathBlocks())
	// Write the path back: Rcr-PS through the PosMap WPQ (batched per
	// level to respect its capacity), Rcr-Baseline posted.
	if s.policy.WPQAtomic() {
		batch := s.memc.BeginBatch()
		n := 0
		for _, bucket := range path {
			for z := 0; z < s.cfg.Z; z++ {
				batch.AddPosMapBlock(s.memc.RegionTreeLocation(region, bucket, z))
				n++
				if n == s.cfg.PosMapWPQEntries {
					if d, err := batch.Commit(s.now); err == nil && d > s.now {
						s.now = d
					}
					batch = s.memc.BeginBatch()
					n = 0
				}
			}
		}
		if d, err := batch.Commit(s.now); err == nil && d > s.now {
			s.now = d
		}
	} else {
		proceed := s.now
		for _, bucket := range path {
			for z := 0; z < s.cfg.Z; z++ {
				loc := s.memc.RegionTreeLocation(region, bucket, z)
				if p, _ := s.memc.WriteBlockPosted(loc, s.now); p > proceed {
					proceed = p
				}
			}
		}
		s.now = proceed
	}
}

// onchipOp charges one half-pipelined column access on the FullNVM
// on-chip array and advances the time cursor.
func (s *System) onchipOp(op nvm.Op) {
	ratio := mem.Cycle(s.cfg.CoreCyclesPerNVMCycle())
	var nvmCycles int
	switch op {
	case nvm.Read:
		nvmCycles = (s.onchipTiming.TRCD + s.onchipTiming.TCCD) / 2
		s.onchipReads++
	case nvm.Write:
		nvmCycles = (s.onchipTiming.TCWD + s.onchipTiming.TWP) / 2
		s.onchipWrites++
	}
	s.now += mem.Cycle(nvmCycles) * ratio
}

// finishResult folds the device and on-chip statistics into a result.
func finishResult(res *Result, sys *System, cfg config.Config) {
	ds := sys.memc.DeviceStats()
	res.Reads = ds.Reads
	res.Writes = ds.Writes
	res.BytesRead = ds.BytesRead
	res.BytesWritten = ds.BytesWritten
	res.EnergyPJ = ds.EnergyReadPJ + ds.EnergyWritePJ
	res.PendingPeak = sys.pendPeak
	if sys.onchipTiming != nil {
		// The paper's traffic accounting (Fig. 6): on-chip NVM stash
		// *writes* count ("the writes to the on-chip NVM is
		// significant"); its read traffic "remains unchanged", i.e.
		// stash read-out is not charged as NVM read traffic.
		bb := uint64(cfg.BlockBytes)
		res.Writes += sys.onchipWrites
		res.BytesWritten += sys.onchipWrites * bb
		res.EnergyPJ += sys.onchipReads*bb*2 + sys.onchipWrites*bb*16
	}
	if ds.MinBankWrites > 0 {
		res.WearImbalance = float64(ds.MaxBankWrites) / float64(ds.MinBankWrites)
	} else {
		res.WearImbalance = 1
	}
	res.Accesses = sys.res.Accesses
	res.DirtyEntries = sys.res.DirtyEntries
	res.ChainBlocks = sys.res.ChainBlocks
	res.LatencyMean = sys.latHist.Mean()
	res.LatencyP50 = sys.latHist.Quantile(0.5)
	res.LatencyP99 = sys.latHist.Quantile(0.99)
	res.LatencyMax = sys.latHist.Max()
}
