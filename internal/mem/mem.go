// Package mem implements the memory controller that sits between the
// ORAM controller and the NVM devices. It is two things joined at a
// seam, because crash behaviour needs only one of them:
//
//   - the persistence domain (this file): which functional mutations
//     survive a power failure. Atomic WPQ batches fed by the Drainer
//     with start/end signals (paper §4.1, §4.2.2), the undo journal of
//     posted writes still in flight, and the Crash/DrainAll semantics;
//   - a timing model (the model interface): when each read, write and
//     queue admission completes. The domain consults it and never looks
//     inside. New builds the paper's NVM model — multi-channel address
//     mapping over the ORAM tree, nvm.Device bank scheduling, write
//     buffer and WPQ occupancy (nvmmodel.go); NewUntimed builds one in
//     which every completion equals its issue cycle and nothing is
//     mapped or scheduled (untimed.go).
//
// Functional mutations are injected as apply/undo closures. Posted writes
// apply immediately (the controller forwards from its write buffer) but
// are undone if a crash strikes before their device completion. Batch
// writes apply at commit (the "end" signal) and are durable from that
// instant, matching the ADR guarantee that WPQ contents drain on power
// fail; a batch never committed is discarded whole. Atomicity and
// ordering of batches do not depend on the model; only how long a posted
// write stays exposed does (under the untimed model: not at all).
package mem

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// Cycle is a point in time in core clock cycles.
type Cycle uint64

// Location names a block-sized home in NVM in the ORAM's own
// coordinates: a bucket of one of the trees sharing the devices, or an
// entry of the trusted PosMap region. Mapping it to a channel, bank and
// row is the timing model's business.
type Location struct {
	region int32  // tree region (0 = data tree, 1..k = recursive PosMap trees) or posMapRegion
	index  uint64 // bucket, or PosMap entry index
}

const posMapRegion = -1

// model is the timing side of the controller: it answers "when" and
// holds no functional state. Every method takes the earliest cycle the
// operation may issue and returns completion cycles.
type model interface {
	// read schedules n back-to-back reads of `bytes` bytes each at loc
	// (the Z slots of a bucket share a location) and returns the last
	// completion.
	read(loc Location, n, bytes int, t Cycle) Cycle
	// write schedules one device write and returns its completion.
	write(loc Location, bytes int, t Cycle) Cycle
	// post admits a block write to the volatile write buffer: the caller
	// may continue at proceed (later than t only when the buffer is
	// full); the device completes the write at done.
	post(loc Location, t Cycle) (proceed, done Cycle)
	// enqueue admits a committed batch's entries to their WPQs in order,
	// scheduling the background drains, and returns the cycle by which
	// all of them have entered.
	enqueue(entries []batchEntry, t Cycle) Cycle
	// powerFail forgets write-buffer and WPQ occupancy.
	powerFail()
	deviceStats() nvm.Stats
}

// Controller is the memory controller: the persistence domain over a
// timing model.
type Controller struct {
	cfg      config.Config
	model    model
	counters stats.Counters
	// timed says the model's enqueue reads the entries it is handed. When
	// it does not, a batch counts an entry that carries no functional
	// mutation and stores nothing for it.
	timed bool

	inFlight   []inFlightWrite // journal of posted writes, for crash undo
	openBatch  *Batch
	batchPool  Batch // reused by BeginBatch: one batch open at a time
	numBatches uint64

	// Pre-resolved counter handles: these counters are bumped up to
	// Z*(L+1) times per access, so the per-event map lookup matters.
	hNVMReads   *int64
	hNVMWrites  *int64
	hWPQData    *int64
	hWPQPosMap  *int64
	hWPQBatches *int64
}

type inFlightWrite struct {
	done Cycle
	undo func()
}

// New creates a controller over the timed NVM model, with cfg.Channels
// devices.
func New(cfg config.Config) *Controller { return newController(cfg, newNVMModel(cfg), true) }

// NewUntimed creates a controller over the untimed model: the same
// persistence domain and traffic counters, no devices and no clock.
func NewUntimed(cfg config.Config) *Controller { return newController(cfg, untimed{}, false) }

func newController(cfg config.Config, m model, timed bool) *Controller {
	c := &Controller{cfg: cfg, model: m, timed: timed}
	c.hNVMReads = c.counters.Handle("nvm.reads")
	c.hNVMWrites = c.counters.Handle("nvm.writes")
	c.hWPQData = c.counters.Handle("wpq.data.entries")
	c.hWPQPosMap = c.counters.Handle("wpq.posmap.entries")
	c.hWPQBatches = c.counters.Handle("wpq.batches")
	return c
}

// Counters exposes the controller's metric registry.
func (c *Controller) Counters() *stats.Counters { return &c.counters }

// DeviceStats returns aggregate device statistics across channels (all
// zero under the untimed model, which has no devices).
func (c *Controller) DeviceStats() nvm.Stats { return c.model.deviceStats() }

// TreeBlockLocation names (bucket, slot) of the data ORAM tree. The Z
// slots of one bucket share a location (and, on the device, a row).
func (c *Controller) TreeBlockLocation(bucket uint64, slot int) Location {
	return Location{index: bucket}
}

// RegionTreeLocation is TreeBlockLocation for one of several ORAM trees
// sharing the devices: region 0 is the data tree, regions 1..k hold the
// recursive PosMap trees.
func (c *Controller) RegionTreeLocation(region int, bucket uint64, slot int) Location {
	return Location{region: int32(region), index: bucket}
}

// PosMapLocation names a PosMap entry's home in the trusted PosMap
// region of NVM.
func (c *Controller) PosMapLocation(entry uint64) Location {
	return Location{region: posMapRegion, index: entry}
}

// ReadBlock performs a block read at loc, no earlier than earliest, and
// returns its completion in core cycles.
func (c *Controller) ReadBlock(loc Location, earliest Cycle) Cycle {
	*c.hNVMReads++
	return c.model.read(loc, 1, c.cfg.BlockBytes, earliest)
}

// ReadBucket reads all Z slots of the bucket at loc and returns the last
// completion.
func (c *Controller) ReadBucket(loc Location, earliest Cycle) Cycle {
	*c.hNVMReads += int64(c.cfg.Z)
	return c.model.read(loc, c.cfg.Z, c.cfg.BlockBytes, earliest)
}

// ReadBytes performs a partial read (e.g. one PosMap entry).
func (c *Controller) ReadBytes(loc Location, earliest Cycle, bytes int) Cycle {
	*c.hNVMReads++
	return c.model.read(loc, 1, bytes, earliest)
}

// WriteBlockPosted issues a block write through the volatile write
// buffer: the caller does not stall (unless the buffer is full), but the
// mutation is undone if a crash precedes device completion. apply is run
// immediately (write-buffer forwarding) and must return an undo closure.
// Returns the cycle at which the caller may proceed.
func (c *Controller) WriteBlockPosted(loc Location, earliest Cycle, apply func() (undo func())) Cycle {
	c.reapJournal(earliest)
	proceed, done := c.model.post(loc, earliest)
	c.journal(done, apply)
	return proceed
}

// WriteBlockSync issues a block write and stalls the caller until the
// device completes it. apply (optional) is run immediately and is durable
// at the returned cycle; it is undone on a crash before then.
func (c *Controller) WriteBlockSync(loc Location, earliest Cycle, apply func() (undo func())) Cycle {
	return c.WriteBytesSync(loc, earliest, c.cfg.BlockBytes, apply)
}

// WriteBytesSync is WriteBlockSync for a partial write (PosMap entry).
func (c *Controller) WriteBytesSync(loc Location, earliest Cycle, bytes int, apply func() (undo func())) Cycle {
	done := c.model.write(loc, bytes, earliest)
	c.journal(done, apply)
	return done
}

// journal counts one device write completing at done and, when it
// carries a functional mutation, applies it and records its undo.
func (c *Controller) journal(done Cycle, apply func() (undo func())) {
	*c.hNVMWrites++
	if apply != nil {
		c.inFlight = append(c.inFlight, inFlightWrite{done: done, undo: apply()})
	}
}

// reapJournal drops journal entries whose writes have completed; they
// are durable.
func (c *Controller) reapJournal(now Cycle) {
	kept := c.inFlight[:0]
	for _, w := range c.inFlight {
		if w.done > now {
			kept = append(kept, w)
		}
	}
	c.inFlight = kept
}

// ---------------------------------------------------------------------
// Drainer + WPQs (§4.1, §4.2.2)
// ---------------------------------------------------------------------

// EntryKind distinguishes the two WPQs.
type EntryKind uint8

const (
	// DataEntry goes to the data-block WPQ.
	DataEntry EntryKind = iota
	// PosMapEntry goes to the PosMap WPQ.
	PosMapEntry
)

// batchEntry is one staged WPQ entry: 32 bytes, no pointers — an
// eviction appends Z*(L+1) of them plus one per dirty PosMap entry, so
// the append must stay a plain copy the collector never scans. What the
// entry does at commit or abandon is its form; the closure forms keep
// their func in Batch.fns, at index ref.
type batchEntry struct {
	loc   Location
	bytes uint32
	// ref is the Applier's tag (formTagged) or an index into Batch.fns
	// (formApply, formUndo).
	ref  int32
	kind EntryKind
	form entryForm
}

type entryForm uint8

const (
	// formNone carries no functional mutation (a timing-only entry).
	formNone entryForm = iota
	// formTagged entries carry an integer the batch's Applier interprets
	// at commit instead of an apply closure — the hot path stages dozens
	// of entries per eviction, and a closure each would be dozens of
	// allocations.
	formTagged
	// formApply runs its func at commit.
	formApply
	// formUndo marks an immediate-apply entry: its mutation already ran
	// (so later protocol steps inside the same batch read coherent state)
	// and its func rolls it back if the batch never commits.
	formUndo
)

// Applier applies a tagged batch entry's functional mutation at commit
// time. The tag's meaning is the caller's own encoding (the PS-ORAM
// controller maps non-negative tags to eviction-plan slots and negative
// tags to PosMap merges).
type Applier interface {
	ApplyEntry(tag int)
}

// Batch is one atomic eviction round: all entries between the drainer's
// "start" and "end" signals. Entries become durable together at Commit;
// a batch abandoned before Commit leaves no trace in NVM.
type Batch struct {
	c       *Controller
	entries []batchEntry
	fns     []func() // apply/undo closures of the formApply/formUndo entries
	// nData and nPosMap count the staged entries per WPQ. They can exceed
	// len(entries): under a model that times nothing, a function-less
	// entry is counted here and not stored.
	nData, nPosMap int
	applier        Applier
	done           bool
}

// SetApplier installs the Applier that interprets tagged entries. Must
// be set before Commit if AddDataTagged/AddPosMapTagged were used; it is
// cleared when the batch completes.
func (b *Batch) SetApplier(a Applier) { b.applier = a }

// BeginBatch starts a new atomic WPQ batch (the drainer's "start"
// signal). Only one batch may be open at a time, which is what lets the
// controller hand out its single reusable Batch (and its entry slice)
// instead of allocating one per eviction round. Callers must not retain
// a Batch past its Commit/Abandon.
func (c *Controller) BeginBatch() *Batch {
	if c.openBatch != nil && !c.openBatch.done {
		panic("mem: batch already open")
	}
	b := &c.batchPool
	b.c = c
	b.entries = b.entries[:0]
	b.fns = b.fns[:0]
	b.nData, b.nPosMap = 0, 0
	b.applier = nil
	b.done = false
	c.openBatch = b
	return b
}

// add stages one entry of the given kind, size and form, keeping the
// per-WPQ tally Commit checks. A formNone entry exists for the timing
// model alone, so a model that times nothing gets the tally and no entry.
func (b *Batch) add(kind EntryKind, loc Location, bytes int, form entryForm, ref int) {
	b.mustOpen()
	if kind == DataEntry {
		b.nData++
	} else {
		b.nPosMap++
	}
	if form == formNone && !b.c.timed {
		return
	}
	if int(int32(ref)) != ref {
		panic(fmt.Sprintf("mem: batch entry tag %d does not fit 32 bits", ref))
	}
	// Filled in place: a composite literal is assembled on the stack with
	// narrow stores and copied out with wide loads, which stalls on
	// store forwarding once per entry.
	b.entries = append(b.entries, batchEntry{})
	e := &b.entries[len(b.entries)-1]
	e.loc, e.bytes, e.ref, e.kind, e.form = loc, uint32(bytes), int32(ref), kind, form
}

// addFunc stages an entry whose mutation is a closure: fn runs at commit
// (formApply) or on abandon (formUndo); a nil fn is a timing-only entry.
func (b *Batch) addFunc(kind EntryKind, loc Location, bytes int, form entryForm, fn func()) {
	if fn == nil {
		b.add(kind, loc, bytes, formNone, 0)
		return
	}
	b.fns = append(b.fns, fn)
	b.add(kind, loc, bytes, form, len(b.fns)-1)
}

// AddData stages a data-block write into the batch.
func (b *Batch) AddData(loc Location, apply func()) {
	b.addFunc(DataEntry, loc, b.c.cfg.BlockBytes, formApply, apply)
}

// AddDataRun is n AddData(loc, nil) calls: the Z slots of a bucket share
// a Location, so a bucket's function-less slot writes stage as one run.
// The timed model sees the same n entries in the same order.
func (b *Batch) AddDataRun(loc Location, n int) {
	if !b.c.timed {
		b.mustOpen()
		b.nData += n
		return
	}
	for ; n > 0; n-- {
		b.add(DataEntry, loc, b.c.cfg.BlockBytes, formNone, 0)
	}
}

// AddDataTagged stages a data-block write applied at commit by the
// batch's Applier (closure-free AddData).
func (b *Batch) AddDataTagged(loc Location, tag int) {
	b.add(DataEntry, loc, b.c.cfg.BlockBytes, formTagged, tag)
}

// AddPosMapTagged stages a PosMap-entry write applied at commit by the
// batch's Applier (closure-free AddPosMap).
func (b *Batch) AddPosMapTagged(loc Location, tag int) {
	b.add(PosMapEntry, loc, b.c.cfg.PosMapEntryBytes, formTagged, tag)
}

// AddDataApplied stages a data-block write whose functional mutation has
// ALREADY been applied by the caller (so subsequent reads within the
// same batch see it); undo rolls it back if the batch is abandoned or
// lost to a crash. Atomicity is unchanged: either the whole batch
// commits, or every immediate mutation is undone.
func (b *Batch) AddDataApplied(loc Location, undo func()) {
	b.addFunc(DataEntry, loc, b.c.cfg.BlockBytes, formUndo, undo)
}

// AddPosMapBlockApplied is AddDataApplied for the PosMap WPQ (recursive
// posmap-tree path blocks).
func (b *Batch) AddPosMapBlockApplied(loc Location, undo func()) {
	b.addFunc(PosMapEntry, loc, b.c.cfg.BlockBytes, formUndo, undo)
}

// AddPosMap stages a PosMap-entry write into the batch.
func (b *Batch) AddPosMap(loc Location, apply func()) {
	b.addFunc(PosMapEntry, loc, b.c.cfg.PosMapEntryBytes, formApply, apply)
}

// AddPosMapBlock stages a full posmap-ORAM block write into the PosMap
// WPQ (recursive schemes write the PosMap back "in a tree organization",
// so the queue carries whole path blocks rather than single entries).
func (b *Batch) AddPosMapBlock(loc Location, apply func()) {
	b.addFunc(PosMapEntry, loc, b.c.cfg.BlockBytes, formApply, apply)
}

func (b *Batch) mustOpen() {
	if b.done {
		panic("mem: batch already committed or abandoned")
	}
}

// DataCount reports staged data-WPQ entries.
func (b *Batch) DataCount() int { return b.nData }

// PosMapCount reports staged PosMap-WPQ entries.
func (b *Batch) PosMapCount() int { return b.nPosMap }

// ErrWPQOverflow reports a batch exceeding a WPQ's capacity; the caller
// (the ORAM controller) must use the ordered small-WPQ eviction instead.
type ErrWPQOverflow struct {
	Kind      EntryKind
	Need, Cap int
}

func (e ErrWPQOverflow) Error() string {
	which := "data"
	if e.Kind == PosMapEntry {
		which = "posmap"
	}
	return fmt.Sprintf("mem: %s WPQ overflow: batch needs %d entries, capacity %d", which, e.Need, e.Cap)
}

// Commit is the drainer's "end" signal: every staged entry is now inside
// the persistence domain, so the whole batch is durable — the functional
// applies run immediately. The returned cycle is when the ORAM controller
// may proceed: entries must have *entered* the WPQs by then, which stalls
// on WPQ free slots (drains to NVM continue in the background and are
// accounted on the devices). A batch that cannot fit a WPQ is refused
// whatever the model: that is the domain's capacity, not its timing.
func (b *Batch) Commit(earliest Cycle) (Cycle, error) {
	b.mustOpen()
	c := b.c
	nData, nPosMap := b.DataCount(), b.PosMapCount()
	if nData > c.cfg.DataWPQEntries {
		return 0, ErrWPQOverflow{Kind: DataEntry, Need: nData, Cap: c.cfg.DataWPQEntries}
	}
	if nPosMap > c.cfg.PosMapWPQEntries {
		return 0, ErrWPQOverflow{Kind: PosMapEntry, Need: nPosMap, Cap: c.cfg.PosMapWPQEntries}
	}
	proceed := c.model.enqueue(b.entries, earliest)
	*c.hWPQData += int64(nData)
	*c.hWPQPosMap += int64(nPosMap)
	*c.hNVMWrites += int64(nData + nPosMap)
	// Durability point: "end" signal received by both WPQs.
	b.applyAll()
	b.done = true
	b.applier = nil
	c.openBatch = nil
	c.numBatches++
	*c.hWPQBatches++
	return proceed, nil
}

// applyAll runs every staged entry's functional mutation, in order.
func (b *Batch) applyAll() {
	for i := range b.entries {
		switch e := &b.entries[i]; e.form {
		case formTagged:
			b.applier.ApplyEntry(int(e.ref))
		case formApply:
			b.fns[e.ref]()
		}
	}
}

// Abandon drops an uncommitted batch (used on simulated crash),
// rolling back any immediate-apply entries in reverse order.
func (b *Batch) Abandon() {
	if b.done {
		return
	}
	b.done = true
	for i := len(b.entries) - 1; i >= 0; i-- {
		if e := &b.entries[i]; e.form == formUndo {
			b.fns[e.ref]()
		}
	}
	b.applier = nil
	if b.c.openBatch == b {
		b.c.openBatch = nil
	}
}

// ---------------------------------------------------------------------
// Crash semantics
// ---------------------------------------------------------------------

// DrainAll simulates a power failure under eADR, where the persistence
// domain covers the volatile buffers too: every in-flight posted write
// drains to NVM (its functional apply stands), and an open batch's
// staged entries are likewise flushed and applied. Contrast with Crash.
func (c *Controller) DrainAll() {
	c.inFlight = c.inFlight[:0]
	if c.openBatch != nil {
		c.openBatch.applyAll()
		c.openBatch.Abandon()
		c.counters.Inc("crash.drained_batches")
	}
	c.model.powerFail()
}

// Crash simulates a power failure at cycle `now`: posted writes whose
// device completion lies in the future are rolled back (the volatile
// write buffer is lost); an open, uncommitted WPQ batch is discarded;
// committed batches were already durable. The controller is left ready
// for a post-recovery run.
func (c *Controller) Crash(now Cycle) {
	// Undo journal: newest first, so overlapping writes restore the
	// oldest surviving value.
	for i := len(c.inFlight) - 1; i >= 0; i-- {
		w := c.inFlight[i]
		if w.done > now && w.undo != nil {
			w.undo()
			c.counters.Inc("crash.lost_posted_writes")
		}
	}
	c.inFlight = c.inFlight[:0]
	if c.openBatch != nil {
		c.openBatch.Abandon()
		c.counters.Inc("crash.discarded_batches")
	}
	c.model.powerFail()
}
