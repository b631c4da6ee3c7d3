// Package core implements the paper's primary contribution: the PS-ORAM
// controller — a Path ORAM controller extended with a temporary PosMap,
// backup blocks, and atomic WPQ write-backs so that ORAM accesses to NVM
// are crash consistent (§4 of the paper).
//
// The same controller also runs the comparison protocols of §5.1
// (Baseline, FullNVM, FullNVM(STT), Naïve-PS-ORAM, Rcr-Baseline,
// Rcr-PS-ORAM, eADR-ORAM), so every evaluated system shares one access
// procedure (access, steps 1-6) and differs only in two functions bound
// at construction from the scheme's config.Policy: the position source
// of step 2 (a flat map, or the recursive chain walk) and the write-back
// of step 5 (posted, persistent, or Rcr-PS-ORAM's access-spanning
// batch). It is the only Path ORAM access engine: the data tree and
// every recursive PosMap tree are loaded by the same walk (loadSlot) and
// written back by the same write-back (planSlots, writeBack);
// internal/oram holds the trees' state and the placement rule. One
// recovery (§4.3) builds a controller from what NVM holds: a store reopen,
// a snapshot load and a flat scheme's injected crash alike.
//
// Two coupled aspects are simulated together:
//
//   - function: blocks move exactly as the protocol dictates, over real
//     AES-CTR sealed data, so a crash at any protocol point followed by
//     recovery can be checked value-by-value;
//   - timing: every NVM command is priced by internal/mem's timing model,
//     so the same run yields execution cycles and traffic — or, under
//     Options.Untimed, by no model at all: the serving path keeps the
//     function and the persistence domain and drops the clock.
package core

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/nvm"
	"repro/internal/oram"
	"repro/internal/stats"
	"repro/internal/storage/filestore"
)

// CrashPoint identifies a protocol point at which a crash can be
// injected. Step numbering follows §2.2.2/§4.2.1; Sub indexes repeated
// sub-steps (buckets loaded in step 3, slots written in step 5).
type CrashPoint struct {
	Access uint64 `json:"access"` // which access (0-based) is in flight
	Step   int    `json:"step"`   // 2..6; 6 = access complete (crash between accesses)
	Sub    int    `json:"sub"`    // sub-step index within the step, -1 if n/a
}

func (p CrashPoint) String() string {
	return fmt.Sprintf("access %d step %d.%d", p.Access, p.Step, p.Sub)
}

// ErrCrashed is returned by Access when the injected crash fired; the
// controller is then in the post-power-failure state and Recover must be
// called before further use.
var ErrCrashed = errors.New("core: simulated power failure")

// errClosed is returned by a controller's operations after its Close.
var errClosed = errors.New("core: controller is closed")

// Controller is the crash-consistent ORAM controller.
type Controller struct {
	Scheme config.Scheme
	Cfg    config.Config
	policy config.Policy // Scheme's, kept by value for the access path

	ORAM *oram.Controller // stash, tree image, engine, working PosMap
	Mem  *mem.Controller  // persistence domain over a timing model

	// pathIdx is the precomputed path-index table for the data tree,
	// shared by the eviction planners (on-path tests and slot->level
	// arithmetic without per-call maps).
	pathIdx *oram.PathIndex

	// durable is the NVM ground truth of the position map: what recovery
	// reads. For PS-ORAM it is only mutated through committed WPQ
	// batches; for FullNVM it is mutated synchronously at step 2; for
	// Baseline it is never mutated (the paper's Case 1a).
	durable *oram.PosMap
	// Temp is the temporary PosMap (PS-ORAM §4.1).
	Temp *oram.TempPosMap
	// Rec is the recursive PosMap hierarchy (Rcr-* schemes).
	Rec *oram.RecursiveMap
	// durableTop is the NVM copy of the on-chip Top map of the recursive
	// hierarchy; Rcr-PS-ORAM updates it through committed batches,
	// Rcr-Baseline never does (its Top updates are volatile).
	durableTop *oram.PosMap

	// onchipNVM models the stash/PosMap built from NVM in the FullNVM
	// schemes; nil otherwise, and nil under Options.Untimed.
	onchipNVM *nvm.Device

	// now is the advancing time cursor in core cycles.
	now mem.Cycle

	// accessN counts completed accesses.
	accessN uint64
	// remapEpoch tags path-origin blocks per access.
	epoch uint64

	counters stats.Counters

	// endangered records, per access, pending-remap blocks whose durable
	// continuation copy (a backup or live block reachable from the
	// durable PosMap) lies on the path about to be overwritten. The
	// eviction must re-emit a backup for each of them, or a crash after
	// this access would strand the block (its durable leaf would point
	// at an overwritten slot). The slot location lets the replacement
	// backup take the destroyed copy's exact slot. The entries keep the
	// load walk's order, one per address, so the rescue backups enter the
	// stash in an order that replays.
	endangered []endangeredCopy

	// inflight tracks the uncommitted remap of the access in progress
	// (between step 2 and step 4). eADR's power-fail drain cancels it:
	// the preserved stash/PosMap must describe a consistent state, and
	// before step 4 the target still lives under its old leaf.
	inflight struct {
		active  bool
		addr    oram.Addr
		oldLeaf oram.Leaf
	}

	// scratch holds the per-access reusable buffers of the serving hot
	// path. Every field is overwritten by the access that uses it;
	// nothing in here carries state between accesses. Result.Value
	// aliases scratch.prev, which is why it is only valid until the next
	// Access on this controller.
	scratch struct {
		prev     []byte             // previous-value copy for Result.Value
		path     []uint64           // current path's buckets (PathInto)
		loaded   []*oram.StashBlock // blocks brought in by this load
		must     []*oram.StashBlock // evictionOrder partitions
		pending  []*oram.StashBlock
		rest     []*oram.StashBlock
		order    []*oram.StashBlock // concatenated candidate order
		keyed    []keyedBlock       // sortByKey's (key, block) pairs
		movers   []*oram.StashBlock // planIdentity working sets
		loose    []*oram.StashBlock
		plan     planRows // the data tree's eviction plan
		every    []int32  // 0..Z(L+1)-1: every slot of plan.flat
		real     []int32  // its occupied slots, ascending (evictPersistent)
		dirty    []int32  // ...whose blocks carry a pending remap
		unplaced []*oram.StashBlock
		slots    []plannedSlot // the eviction plan (planSlots)
		ivBase   uint64        // IV cursor before the last planSlots' draws
		// evicted holds the blocks a write-back removed from a stash until
		// they recycle (an access that fails leaves them to the next).
		evicted []*oram.StashBlock
		ordered orderedScratch // evictOrdered's working sets
		// remapSeq is the temporary PosMap's sequence number of the
		// access's remap (lookupTemp), the target's eviction priority.
		remapSeq uint64
		// Rcr-PS-ORAM's access-spanning batch (nil when none is open):
		// each tree's undo-log mark (index = region), the Top-map update
		// it stages, and the target it force-evicts.
		batch               *mem.Batch
		marks               []int
		topIdx, target      oram.Addr
		topLeaf, targetLeaf oram.Leaf
		// The recursive chain walk: per PosMap tree, the block on the
		// chain, its next leaf, and the leaf of the path read; and the
		// PosMap blocks the walk read and wrote (Result.ChainBlocks).
		chain struct {
			idx         []oram.Addr
			next, paths []oram.Leaf
		}
		chainBlocks int
	}

	// What a scheme varies in an access (see bindProtocol). lookup is
	// step 2's position source: addr's current leaf, with lNew recorded
	// as the next one, and the earliest cycle the data path's load may
	// issue. follow, if set, records lNew once step 2's crash point is
	// past: the recursive sources' data-tree working map, which a power
	// failure at step 2 must find unchanged (reloadChain leaves an entry
	// it cannot re-derive at its last value). evict is step 5's
	// write-back of the data path: the real blocks written and the PosMap
	// entries persisted.
	lookup func(addr oram.Addr, lNew oram.Leaf) (l oram.Leaf, earliest mem.Cycle, err error)
	follow func(addr oram.Addr, lNew oram.Leaf)
	evict  func(l oram.Leaf) (evicted, dirty int, err error)

	// gathered folds what oram.Image.Gather read ahead of each load walk;
	// it is kept only so that those loads are not discarded.
	gathered uint64

	// stageNanos accumulates wall time per protocol stage (see the
	// stage* constants): the serving layer turns deltas into per-stage
	// latency histograms. tMark is the stage cursor (stageMark/stageAdd).
	stageNanos [NumStages]int64
	tMark      int64

	// Group commit (see GroupCommit in Options): group is the configured
	// thresholds; ticket is the open group's CommitTicket (nil when no
	// group is open) and groupOps the accesses it covers so far.
	// lastTicket is the ticket covering the most recently completed
	// access — OnCommit registers there, so an access that itself closed
	// the group still waits for that group's barrier. onGroupCommit, if
	// set, observes every flushed group (ops covered, barrier wall time);
	// it runs on the storage backend's persist worker.
	group         GroupCommit
	ticket        *CommitTicket
	lastTicket    *CommitTicket
	groupOps      int
	onGroupCommit func(ops int, persistNanos int64)

	// Handles of the counters bumped on every access (a string-keyed
	// Inc is a map lookup each).
	hAccesses *int64 // oram.accesses
	hBackups  *int64 // psoram.backups
	hDirty    *int64 // psoram.dirty_entries
	// hElided is psoram.backups_elided, created at the first elision so
	// that a scheme that never elides has no such counter.
	hElided *int64
	// freeBlocks holds spare stash blocks (Data retains its capacity):
	// every write-back returns its evicted blocks here (see
	// recycleEvicted).
	freeBlocks []*oram.StashBlock

	// CrashAt, when non-nil, is consulted at every crash point; returning
	// true triggers the simulated power failure there.
	CrashAt func(CrashPoint) bool

	crashed bool
	// closed is set by Close: the images are freed.
	closed bool

	// storage is the durable backend (nil = in-memory image only): the
	// tree image, the NVM position map and the seal-version cursor the
	// §4.3 recovery path needs live in it.
	// Durable PosMap mutations are mirrored into it as they happen, and
	// commitDurable runs its persist barrier at access boundaries, so
	// the on-disk state only ever transitions between them: exactly the
	// atomic-prefix guarantee the crash checker holds the persistent
	// schemes to.
	storage *filestore.Store

	// trees holds every tree the engine keeps in memory, by region: 0
	// the data tree, i the i-th recursive PosMap tree; plans holds each
	// one's eviction plan (the data tree's is scratch.plan).
	trees []*oram.Controller
	plans []*planRows
}

// Options tunes construction beyond the scheme and config.
type Options struct {
	// NumBlocks overrides the logical block count (the full Table 3 tree
	// is too large for functional simulation; tests use small trees).
	NumBlocks uint64
	// Levels overrides the tree height. Zero derives it from NumBlocks.
	Levels int
	// GroupCommit batches the durable persist barrier across accesses
	// (ignored without a durable backend).
	GroupCommit GroupCommit
	// Untimed builds the controller over mem's untimed model: the same
	// protocol, persistence domain, IV/version streams and traffic
	// counters, with no NVM device scheduled and Now() meaningless. The
	// zero value is the paper's timed NVM model.
	Untimed bool
	// StoreDir, when non-empty, backs the controller with a file store
	// in that directory (flat schemes only): a directory holding no
	// committed store gets a fresh one, and a committed store is
	// recovered, its scheme and size checked against the request. The
	// zero value keeps the image in memory.
	StoreDir string
}

// GroupCommit tunes durable group commit: instead of one persist
// barrier per access, accesses accumulate into a commit group that
// flushes as one barrier once MaxOps accesses have joined (or earlier
// via FlushCommits/Close). MaxOps <= 1 keeps the per-access serial
// barrier, byte-identical to the default. An access against a grouped
// controller returns BEFORE its mutations are durable; callers that ack
// must hold the ack on OnCommit. The controller is single-threaded, so
// bounding how long an idle open group may wait belongs to the layer
// that owns the thread (internal/serve flushes an idle shard's group
// after serve.Options.GroupCommitDelay).
type GroupCommit struct {
	MaxOps int
}

// New builds a controller for the scheme; it is the one way to build
// one. cfg supplies Z, stash size, WPQ sizes, NVM timing, etc.; opts
// scales the tree and, with StoreDir, backs it with a file store:
// created and committed when the directory holds none, otherwise
// recovered (recoverController). New also derives the tree height when
// opts.Levels is zero (at least 2), and grows a recursive scheme's data
// WPQ to the 2(L+1)Z entries of its eviction batch (the data path plus a
// PosMap tree's path).
func New(scheme config.Scheme, cfg config.Config, opts Options) (*Controller, error) {
	if opts.StoreDir != "" {
		if err := StorageSupported(scheme); err != nil {
			return nil, err
		}
		st, err := filestore.Open(opts.StoreDir)
		switch {
		case err == nil:
			return recoverController(scheme, cfg, opts, st, &st.Contents)
		case !errors.Is(err, filestore.ErrNoStore):
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NumBlocks == 0 {
		return nil, fmt.Errorf("core: Options.NumBlocks is required (functional trees are sized explicitly)")
	}
	if opts.Levels == 0 {
		opts.Levels = max(cfg.TreeLevelsFor(opts.NumBlocks), 2)
	}
	if scheme.Policy().Recursive {
		cfg.DataWPQEntries = max(cfg.DataWPQEntries, 2*(opts.Levels+1)*cfg.Z)
	}
	if opts.StoreDir != "" {
		return createController(scheme, cfg, opts)
	}
	return newController(scheme, cfg, opts, nil, nil)
}

// newController is the shared construction path over a validated cfg
// and a sized tree. Given src, what NVM holds, it attaches the image to
// it without writing anything, and the caller restores the PosMap and
// version cursor; otherwise it seals a fresh initial image. st, if
// non-nil, is the file store the image lives in. A failure frees every
// image built.
func newController(scheme config.Scheme, cfg config.Config, opts Options, st *filestore.Store, src *filestore.Contents) (*Controller, error) {
	policy := scheme.Policy()
	op := oram.Params{
		Levels:       opts.Levels,
		Z:            cfg.Z,
		BlockBytes:   cfg.BlockBytes,
		StashEntries: cfg.StashEntries,
		NumBlocks:    opts.NumBlocks,
		Seed:         cfg.Seed,
	}
	newORAM := oram.New
	if src != nil {
		newORAM, op.Storage = oram.NewAttached, src
	}
	if st != nil {
		op.Storage = st
	}
	oc, err := newORAM(op)
	if err != nil {
		return nil, err
	}
	newMem := mem.New
	if opts.Untimed {
		newMem = mem.NewUntimed
	}
	c := &Controller{
		Scheme:  scheme,
		Cfg:     cfg,
		policy:  policy,
		ORAM:    oc,
		Mem:     newMem(cfg),
		pathIdx: oram.NewPathIndex(oc.Tree),
		durable: oc.PosMap.Clone(),
		Temp:    oram.NewTempPosMap(cfg.TempPosMapSize),
		storage: st,
	}
	c.scratch.plan = newPlanRows(oc.Tree)
	c.trees, c.plans = []*oram.Controller{oc}, []*planRows{&c.scratch.plan}
	c.scratch.real = make([]int32, len(c.scratch.plan.flat))
	if t, ok := policy.OnChip.Timing(); ok && !opts.Untimed {
		c.onchipNVM = nvm.NewDevice(t, 8, cfg.BlockBytes)
	}
	if policy.Recursive {
		perBlock := min(cfg.BlockBytes/4, 16)
		rec, err := oram.NewRecursiveMap(oram.RecursiveParams{
			DataBlocks:      opts.NumBlocks,
			DataTree:        oc.Tree,
			BlockBytes:      cfg.BlockBytes,
			EntriesPerBlock: perBlock,
			OnChipEntries:   uint64(cfg.OnChipPosMapBytes / 4 / 64), // scaled-down on-chip budget
			StashEntries:    cfg.StashEntries,
			Seed:            cfg.Seed + 7,
		})
		if err != nil {
			c.closeImages()
			return nil, err
		}
		for _, lvl := range rec.Levels {
			plan := newPlanRows(lvl.Tree)
			c.trees, c.plans = append(c.trees, lvl), append(c.plans, &plan)
		}
		if err := rec.SyncLevel1(oc.PosMap); err != nil {
			c.closeImages()
			return nil, err
		}
		if len(rec.Levels) == 0 {
			// Degenerate recursion (the whole map fits on chip): the Top
			// map must BE the data ORAM's map, not an independent one.
			rec.Top = oc.PosMap
		}
		c.Rec = rec
		c.durableTop = rec.Top.Clone()
		n := len(rec.Levels)
		c.scratch.marks = make([]int, 1+n)
		c.scratch.chain.idx = make([]oram.Addr, n)
		c.scratch.chain.next, c.scratch.chain.paths = make([]oram.Leaf, n), make([]oram.Leaf, n)
	}
	// every lists the slots of the longest path of any tree.
	longest := 0
	for _, p := range c.plans {
		longest = max(longest, len(p.flat))
	}
	c.scratch.every = make([]int32, longest)
	for i := range c.scratch.every {
		c.scratch.every[i] = int32(i)
	}
	c.bindProtocol()
	c.group = opts.GroupCommit
	return c, nil
}

// bindProtocol picks the scheme's position source and write-back from
// its Policy: the flat map of PS-ORAM (lookupTemp), FullNVM
// (lookupWriteThrough) or the rest (lookupInFlight), or the recursive
// chain walk (walkChain, walkChainBatch), whose data-tree working map
// follows the chain; and the posted, persistent or batch write-back
// (evictPosted, evictPersistent, evictBatch). It also takes the handles
// of the counters every access bumps.
func (c *Controller) bindProtocol() {
	c.hAccesses = c.counters.Handle("oram.accesses")
	c.hBackups = c.counters.Handle("psoram.backups")
	c.hDirty = c.counters.Handle("psoram.dirty_entries")
	p := c.policy
	c.lookup, c.evict = c.lookupInFlight, c.evictPosted
	switch {
	case p.Recursive && p.WPQAtomic():
		c.lookup, c.evict = c.walkChainBatch, c.evictBatch
	case p.Recursive:
		c.lookup = c.walkChain
	case p.WPQAtomic():
		c.lookup, c.evict = c.lookupTemp, c.evictPersistent
	case p.OnChip != config.MediumSRAM:
		c.lookup = c.lookupWriteThrough
	}
	if p.Recursive {
		c.follow = c.ORAM.PosMap.Put
	}
}

// Now returns the current simulated time in core cycles. Under
// Options.Untimed it only accumulates the fixed crypto latencies and
// means nothing.
func (c *Controller) Now() mem.Cycle { return c.now }

// Accesses returns the number of completed ORAM accesses.
func (c *Controller) Accesses() uint64 { return c.accessN }

// Counters exposes the controller's own metric registry (the memory
// controller keeps its own; see Mem.Counters).
func (c *Controller) Counters() *stats.Counters { return &c.counters }

// DurablePosMap exposes the NVM copy of the position map for tests and
// the recovery checker.
func (c *Controller) DurablePosMap() *oram.PosMap { return c.durable }

// durableCopy locates a block's durable continuation copy on the path
// of the access in progress: its leaf and its slot.
type durableCopy struct {
	leaf   oram.Leaf
	bucket uint64
	slot   int
}

// endangeredCopy is the durable continuation of block addr that the
// load walk met on the path it is about to overwrite.
type endangeredCopy struct {
	addr oram.Addr
	durableCopy
}

// endanger records cp as the endangered continuation of addr: appended
// in walk order, or, for an address met before, in place of the earlier
// copy.
func (c *Controller) endanger(addr oram.Addr, cp durableCopy) {
	for i := range c.endangered {
		if c.endangered[i].addr == addr {
			c.endangered[i].durableCopy = cp
			return
		}
	}
	c.endangered = append(c.endangered, endangeredCopy{addr, cp})
}

// currentLeaf is the controller's live view of a block's leaf: the
// temporary PosMap overlays the on-chip working map.
func (c *Controller) currentLeaf(addr oram.Addr) oram.Leaf {
	if l, ok := c.Temp.Lookup(addr); ok {
		return l
	}
	return c.ORAM.PosMap.Lookup(addr)
}

// DeclaredSteps lists the protocol steps every scheme's access path
// declares as crash-injection points (§2.2.2/§4.2.1 numbering): 2 =
// PosMap lookup/remap, 3 = path load (per-bucket sub-steps), 4 = stash
// update, 5 = write-back (per-slot/per-batch sub-steps), 6 = access
// complete. The coverage tests assert every one of them is offered, so a
// new protocol step cannot silently go untested.
func DeclaredSteps() []int { return []int{2, 3, 4, 5, 6} }

// DeclaredStepsFor narrows DeclaredSteps to the steps the scheme offers
// to CrashAt (config.Policy.OffersStep).
func DeclaredStepsFor(s config.Scheme) []int {
	var steps []int
	for _, step := range DeclaredSteps() {
		if s.Policy().OffersStep(step) {
			steps = append(steps, step)
		}
	}
	return steps
}

// maybeCrash consults the injection hook; on fire it performs the power
// failure and reports true.
func (c *Controller) maybeCrash(step, sub int) bool {
	if c.CrashAt == nil || c.crashed || !c.policy.OffersStep(step) {
		return false
	}
	if !c.CrashAt(CrashPoint{Access: c.accessN, Step: step, Sub: sub}) {
		return false
	}
	c.powerFail()
	return true
}

// PowerFail is a power failure between accesses: powerFail with no
// access in flight. Recover before the next access.
func (c *Controller) PowerFail() error {
	if c.closed {
		return errClosed
	}
	if c.crashed {
		return errors.New("core: power failure before Recover")
	}
	c.powerFail()
	return nil
}

// powerFail applies the physics of losing power at c.now to the NVM
// model: the write buffer and any uncommitted WPQ batch are lost
// (mem.Crash), and every tree's image rolls back the writes that complete
// after c.now. Under eADR the buffers and the on-chip hierarchy drain
// instead, following the protocol: a remap before its step-4 stash update
// is undone, and the working PosMap reaches NVM as the durable one.
func (c *Controller) powerFail() {
	c.crashed = true
	c.counters.Inc("crash.count")
	lostAfter := uint64(c.now)
	if c.policy.Domain == config.DomainEADR {
		c.Mem.DrainAll()
		lostAfter = oram.NeverDone
		if c.inflight.active {
			c.ORAM.PosMap.Put(c.inflight.addr, c.inflight.oldLeaf)
		}
		for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
			c.setDurable(a, c.ORAM.PosMap.Lookup(a))
		}
	} else {
		c.Mem.Crash(c.now)
	}
	for _, t := range c.trees {
		t.Image.Rollback(0, lostAfter)
	}
}

// Recover models the post-restart recovery procedure (§4.3). A flat
// scheme's controller is rebuilt by recoverController from the NVM model
// the power failure left, as a reopen or a load would build it, and
// replaces c. A file-backed model goes into the store's Contents without
// a barrier (the directory may lag it by an access that crashed at step
// 6, or by the open commit group); an in-memory one is copied out of the
// image. Only what a power failure leaves comes across: the machine
// (memory system, on-chip NVM device, clock, counters, access count,
// epoch, crash hook, open commit group); the stash where the persistence
// domain keeps it (Policy.OnChipSurvives); and, until a store keeps
// them, the IV cursor and the leaf stream. A recursive
// scheme recovers in place (reloadChain). Recover fails without a crash.
//
// Recovery cost is charged to the simulated clock and the
// "recovery.nvm_reads" counter: PS-ORAM recovery is a single sequential
// sweep of the PosMap region (no log scan, no tree walk) — one of the
// advantages over logging/CoW the paper argues in §2.5.
func (c *Controller) Recover() error {
	if c.closed {
		return errClosed
	}
	if !c.crashed {
		return errors.New("core: Recover called without a crash")
	}
	// Charge the PosMap reload: N entries packed PosMapEntryBytes each,
	// read line by line from the trusted region.
	perLine := uint64(c.Cfg.BlockBytes / c.Cfg.PosMapEntryBytes)
	for a := uint64(0); a < c.ORAM.NumBlocks(); a += perLine {
		c.now = max(c.now, c.Mem.ReadBytes(c.Mem.PosMapLocation(a), c.now, c.Cfg.BlockBytes))
		c.counters.Inc("recovery.nvm_reads")
	}
	if c.Rec != nil {
		c.reloadChain()
	} else {
		var src *filestore.Contents
		if c.storage != nil {
			c.preparePersist()
			src = &c.storage.Contents
		} else {
			src = filestore.NewContents(storeGeometry(c.Scheme, c.Cfg, c.ORAM.Tree.L, c.ORAM.NumBlocks()), durableView{c})
		}
		n, err := recoverController(c.Scheme, c.Cfg, Options{GroupCommit: c.group, Untimed: true}, c.storage, src) // c's Mem comes across
		if err != nil {
			return err
		}
		n.Mem, n.onchipNVM, n.now, n.stageNanos, n.counters = c.Mem, c.onchipNVM, c.now, c.stageNanos, c.counters
		n.accessN, n.epoch, n.CrashAt = c.accessN, c.epoch, c.CrashAt
		n.ticket, n.lastTicket, n.groupOps, n.onGroupCommit = c.ticket, c.lastTicket, c.groupOps, c.onGroupCommit
		if c.policy.OnChipSurvives() {
			n.ORAM.Stash = c.ORAM.Stash
		}
		n.ORAM.ResumeStreams(c.ORAM)
		c.closeImages()
		*c = *n
		c.plans[0] = &c.scratch.plan // it pointed into n
		c.bindProtocol()
	}
	c.crashed = false
	c.counters.Inc("crash.recoveries")
	return nil
}

// Peek returns addr's value as the running system would read it
// (diagnostics / consistency checking; not an ORAM access).
func (c *Controller) Peek(addr oram.Addr) ([]byte, error) {
	if c.closed {
		return nil, errClosed
	}
	if c.crashed {
		return nil, errors.New("core: recover before reading")
	}
	return c.ORAM.PeekWith(addr, c.currentLeaf)
}
