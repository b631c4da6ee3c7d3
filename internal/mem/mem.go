// Package mem implements the memory controller that sits between the
// ORAM controller and the NVM devices. It is two things joined at a
// seam, because crash behaviour needs only one of them:
//
//   - the persistence domain (this file): when a write becomes durable.
//     Atomic WPQ batches fed by the Drainer with start/end signals
//     (paper §4.1, §4.2.2), the journal of posted writes still in
//     flight, and the Crash/DrainAll semantics;
//   - a timing model (the model interface): when each read, write and
//     queue admission completes. The domain consults it and never looks
//     inside. New builds the paper's NVM model — multi-channel address
//     mapping over the ORAM tree, nvm.Device bank scheduling, write
//     buffer and WPQ occupancy (nvmmodel.go); NewUntimed builds one in
//     which every completion equals its issue cycle and nothing is
//     mapped or scheduled (untimed.go).
//
// The domain holds no functional state: the caller mutates its own
// state and keeps what it needs to take a mutation back (internal/oram's
// image undo log). The two rules are stated over data. A posted write
// is lost if power fails before its completion cycle, which
// WriteBlockPosted returns. A batch is durable from its Commit (the "end"
// signal), matching the ADR guarantee that WPQ contents drain on power
// fail, and one never committed is discarded whole. Atomicity and
// ordering of batches do not depend on the model; only how long a posted
// write stays exposed does (under the untimed model: not at all).
package mem

import (
	"fmt"
	"slices"

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

	inFlight  []Cycle // completion cycles of the posted writes still in flight
	openBatch *Batch
	batchPool Batch // reused by BeginBatch: one batch open at a time

	// Pre-resolved counter handles: these counters are bumped up to
	// Z*(L+1) times per access, so the per-event map lookup matters.
	hNVMReads   *int64
	hNVMWrites  *int64
	hWPQData    *int64
	hWPQPosMap  *int64
	hWPQBatches *int64
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
// buffer. The caller may continue at proceed (later than earliest only
// when the buffer is full); the device completes the write at done, and
// a power failure before done loses it. The caller applies the write to
// its own state at once (the controller forwards from its write buffer)
// and owns taking it back on a crash before done.
func (c *Controller) WriteBlockPosted(loc Location, earliest Cycle) (proceed, done Cycle) {
	proceed, done = c.model.post(loc, earliest)
	*c.hNVMWrites++
	if done > earliest {
		if len(c.inFlight) == cap(c.inFlight) {
			// Rather than grow, drop the writes complete by now: Crash
			// counts by cycle, so this only bounds the journal.
			c.inFlight = slices.DeleteFunc(c.inFlight, func(d Cycle) bool { return d <= earliest })
		}
		c.inFlight = append(c.inFlight, done)
	}
	return proceed, done
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
// the append must stay a plain copy the collector never scans.
type batchEntry struct {
	loc   Location
	bytes uint32
	ref   int32 // the Applier's tag (formTagged)
	kind  EntryKind
	form  entryForm
}

type entryForm uint8

const (
	// formNone carries no functional mutation (a timing-only entry).
	formNone entryForm = iota
	// formTagged entries carry an integer the batch's Applier interprets
	// at commit.
	formTagged
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
	// nData and nPosMap count the staged entries per WPQ. They can exceed
	// len(entries): under a model that times nothing, an untagged entry is
	// counted here and not stored.
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

// AddData stages a data-block write into the batch.
func (b *Batch) AddData(loc Location) {
	b.add(DataEntry, loc, b.c.cfg.BlockBytes, formNone, 0)
}

// AddDataRun is n AddData(loc) calls: the Z slots of a bucket share
// a Location, so a bucket's slot writes stage as one run.
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
// batch's Applier.
func (b *Batch) AddDataTagged(loc Location, tag int) {
	b.add(DataEntry, loc, b.c.cfg.BlockBytes, formTagged, tag)
}

// AddPosMapTagged stages a PosMap-entry write applied at commit by the
// batch's Applier.
func (b *Batch) AddPosMapTagged(loc Location, tag int) {
	b.add(PosMapEntry, loc, b.c.cfg.PosMapEntryBytes, formTagged, tag)
}

// AddPosMap stages a PosMap-entry write into the batch.
func (b *Batch) AddPosMap(loc Location) {
	b.add(PosMapEntry, loc, b.c.cfg.PosMapEntryBytes, formNone, 0)
}

// AddPosMapBlock stages a full posmap-ORAM block write into the PosMap
// WPQ (recursive schemes write the PosMap back "in a tree organization",
// so the queue carries whole path blocks rather than single entries).
func (b *Batch) AddPosMapBlock(loc Location) {
	b.add(PosMapEntry, loc, b.c.cfg.BlockBytes, formNone, 0)
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
// the persistence domain, so the whole batch is durable — tagged entries
// are applied immediately. The returned cycle is when the ORAM controller
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
	for i := range b.entries {
		if e := &b.entries[i]; e.form == formTagged {
			b.applier.ApplyEntry(int(e.ref))
		}
	}
	b.close()
	*c.hWPQBatches++
	return proceed, nil
}

// Abandon drops an uncommitted batch: none of it reaches NVM.
func (b *Batch) Abandon() {
	if !b.done {
		b.close()
	}
}

func (b *Batch) close() {
	b.done = true
	b.applier = nil
	if b.c.openBatch == b {
		b.c.openBatch = nil
	}
}

// ---------------------------------------------------------------------
// Crash semantics. Neither call mutates anything but the domain: the
// caller takes back what a crash loses.
// ---------------------------------------------------------------------

// DrainAll simulates a power failure under eADR, where the persistence
// domain covers the volatile buffers too: every in-flight posted write
// drains to NVM, and so does an open batch. Contrast with Crash.
func (c *Controller) DrainAll() {
	c.inFlight = c.inFlight[:0]
	if c.openBatch != nil {
		c.openBatch.close()
		c.counters.Inc("crash.drained_batches")
	}
	c.model.powerFail()
}

// Crash simulates a power failure at cycle `now`: posted writes whose
// device completion lies in the future are lost with the volatile write
// buffer (counted as crash.lost_posted_writes); an open, uncommitted WPQ
// batch is discarded; committed batches were already durable. The
// controller is left ready for a post-recovery run.
func (c *Controller) Crash(now Cycle) {
	for _, done := range c.inFlight {
		if done > now {
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
