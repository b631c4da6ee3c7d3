package mem

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/config"
	"repro/internal/cryptoeng"
	"repro/internal/oram"
)

func testCfg(channels int) config.Config {
	c := config.Default()
	c.Channels = channels
	return c
}

// caller plays the ORAM controller's part over the domain, which holds
// no functional state: it applies every write to its own image at once,
// logging what the write replaced with the cycle the domain says the
// write completes at — a write into an open batch completes only when the
// batch commits (oram.NeverDone until then) — and takes back what a power
// failure loses. A slot holds one byte value; 0 is a dummy.
type caller struct {
	c    *Controller
	img  *oram.Image
	ivs  uint64
	mark int // the undo log's mark at the open batch's start
}

func newCaller(c *Controller) *caller {
	k := &caller{c: c}
	k.img = oram.NewImage(oram.NewTree(2, 2), cryptoeng.MustNew(oram.DefaultKey), 16, k.nextIV)
	return k
}

func (k *caller) nextIV() uint64 { k.ivs++; return k.ivs }

// apply writes v into slot, logged as completing at done.
func (k *caller) apply(slot int, v byte, done Cycle) {
	b := oram.Block{Addr: oram.DummyAddr}
	if v != 0 {
		b = oram.Block{Addr: oram.Addr(slot), Data: bytes.Repeat([]byte{v}, 16)}
	}
	k.img.PutLazyUndoable(uint64(slot/2), slot%2, k.nextIV(), k.nextIV(), b, uint64(done))
}

// value is what slot holds.
func (k *caller) value(slot int) byte {
	if d := k.img.PlainData(uint64(slot/2), slot%2); d != nil {
		return d[0]
	}
	return 0
}

// posted issues a posted write of v into slot at cycle t.
func (k *caller) posted(slot int, v byte, t Cycle) (proceed, done Cycle) {
	proceed, done = k.c.WriteBlockPosted(k.c.TreeBlockLocation(uint64(slot/2), slot%2), t)
	k.apply(slot, v, done)
	return proceed, done
}

// begin opens a batch; stage writes v into slot as one of its data
// entries; commit and abandon end it.
func (k *caller) begin() *Batch {
	k.mark = k.img.Mark()
	return k.c.BeginBatch()
}

func (k *caller) stage(b *Batch, slot int, v byte) {
	b.AddData(k.c.TreeBlockLocation(uint64(slot/2), slot%2))
	k.apply(slot, v, oram.NeverDone)
}

func (k *caller) commit(b *Batch, t Cycle) (Cycle, error) {
	done, err := b.Commit(t)
	if err == nil {
		k.img.Release(k.mark, oram.NeverDone)
	}
	return done, err
}

func (k *caller) abandon(b *Batch) {
	b.Abandon()
	k.img.Rollback(k.mark, 0)
}

// crash is a power failure at now; drain one under eADR.
func (k *caller) crash(now Cycle) {
	k.c.Crash(now)
	k.img.Rollback(0, uint64(now))
}

func (k *caller) drain() {
	k.c.DrainAll()
	k.img.Release(0, oram.NeverDone)
}

// resolved maps loc the way c's NVM model does.
func resolved(c *Controller, loc Location) address {
	return c.model.(*nvmModel).resolve(loc)
}

func TestTreeBlockLocationInterleaving(t *testing.T) {
	c := New(testCfg(4))
	seen := map[int]bool{}
	for b := uint64(0); b < 16; b++ {
		a := resolved(c, c.TreeBlockLocation(b, 0))
		if a.channel != int(b%4) {
			t.Errorf("bucket %d on channel %d, want %d", b, a.channel, b%4)
		}
		seen[a.channel] = true
	}
	if len(seen) != 4 {
		t.Errorf("buckets only touched %d channels", len(seen))
	}
}

func TestBucketSlotsShareRow(t *testing.T) {
	c := New(testCfg(1))
	l0 := c.TreeBlockLocation(5, 0)
	l3 := c.TreeBlockLocation(5, 3)
	if l0 != l3 {
		t.Errorf("slots of one bucket should share a row: %+v vs %+v", l0, l3)
	}
	l6 := c.TreeBlockLocation(6, 0)
	if l6 == l0 {
		t.Errorf("distinct buckets mapped to same location")
	}
}

func TestPosMapRegionDistinctFromTree(t *testing.T) {
	c := New(testCfg(2))
	tree := resolved(c, c.TreeBlockLocation(0, 0))
	pm := resolved(c, c.PosMapLocation(0))
	if tree == pm {
		t.Errorf("posmap region overlaps tree region")
	}
	if pm.row < 1<<40 {
		t.Errorf("posmap rows should live in the high region, got %d", pm.row)
	}
}

func TestPosMapEntriesPacked(t *testing.T) {
	cfg := testCfg(1)
	c := New(cfg)
	perRow := uint64(cfg.BlockBytes / cfg.PosMapEntryBytes)
	if resolved(c, c.PosMapLocation(0)) != resolved(c, c.PosMapLocation(perRow-1)) {
		t.Errorf("entries within one row should share an address")
	}
	if resolved(c, c.PosMapLocation(0)) == resolved(c, c.PosMapLocation(perRow)) {
		t.Errorf("entries across rows should differ")
	}
}

func TestReadBlockAdvancesTime(t *testing.T) {
	c := New(testCfg(1))
	done := c.ReadBlock(c.TreeBlockLocation(0, 0), 100)
	if done <= 100 {
		t.Fatalf("read completed at %d, expected after earliest", done)
	}
	if c.Counters().Get("nvm.reads") != 1 {
		t.Fatalf("read not counted")
	}
}

// A posted write lets the caller proceed at once into an empty buffer,
// and completes on the device later.
func TestPostedWriteDoesNotStallWhenBufferEmpty(t *testing.T) {
	c := New(testCfg(1))
	proceed, _ := c.WriteBlockPosted(c.TreeBlockLocation(0, 0), 50)
	if proceed != 50 {
		t.Fatalf("posted write stalled caller to %d", proceed)
	}
}

// A synchronous write is a posted write whose caller waits for its
// completion cycle, which lies after the write issues.
func TestSyncWriteStalls(t *testing.T) {
	c := New(testCfg(1))
	_, done := c.WriteBlockPosted(c.TreeBlockLocation(0, 0), 10)
	if done <= 10 {
		t.Fatalf("sync write returned %d, want completion after earliest", done)
	}
}

func TestPostedWriteBufferFullStalls(t *testing.T) {
	cfg := testCfg(1)
	cfg.WriteBufferEntries = 2
	c := New(cfg)
	loc := c.TreeBlockLocation(0, 0)
	p1, _ := c.WriteBlockPosted(loc, 0)
	p2, _ := c.WriteBlockPosted(loc, 0)
	p3, _ := c.WriteBlockPosted(loc, 0)
	if p1 != 0 || p2 != 0 {
		t.Fatalf("first writes should not stall: %d %d", p1, p2)
	}
	if p3 == 0 {
		t.Fatalf("third write should stall on a 2-entry buffer")
	}
}

func TestCrashUndoesInFlightPostedWrites(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	k.apply(0, 'o', 0)
	_, done := k.posted(0, 'n', 0)
	if k.value(0) != 'n' {
		t.Fatal("a posted write is not applied at once")
	}
	// Crash strictly before completion: the write is lost.
	k.crash(done - 1)
	if k.value(0) != 'o' {
		t.Fatalf("crash before completion should undo the write, value=%q", k.value(0))
	}
	if n := k.c.Counters().Get("crash.lost_posted_writes"); n != 1 {
		t.Fatalf("crash.lost_posted_writes = %d, want 1", n)
	}
}

func TestCrashKeepsCompletedWrites(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	k.apply(0, 'o', 0)
	_, done := k.posted(0, 'n', 0)
	k.crash(done) // at/after completion: durable
	if k.value(0) != 'n' {
		t.Fatalf("completed write should survive crash, value=%q", k.value(0))
	}
	if n := k.c.Counters().Get("crash.lost_posted_writes"); n != 0 {
		t.Fatalf("crash.lost_posted_writes = %d, want 0", n)
	}
}

// Two in-flight writes of one slot: undone newest first, the slot holds
// the value from before both (oldest first would leave the first write).
func TestCrashUndoOrderNewestFirst(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	k.apply(0, '0', 0)
	k.posted(0, '1', 0)
	k.posted(0, '2', 0)
	k.crash(0)
	if k.value(0) != '0' {
		t.Fatalf("after crash value = %q, want '0'", k.value(0))
	}
	if n := k.c.Counters().Get("crash.lost_posted_writes"); n != 2 {
		t.Fatalf("crash.lost_posted_writes = %d, want 2", n)
	}
}

func TestBatchAtomicCommit(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	batch := k.begin()
	k.stage(batch, 1, 'a')
	batch.AddPosMap(k.c.PosMapLocation(7))
	done, err := k.commit(batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if batch.DataCount() != 1 || batch.PosMapCount() != 1 || k.img.Mark() != 0 {
		t.Fatal("the committed batch's writes are still logged")
	}
	// Durable immediately, even if we crash right at commit cycle.
	k.crash(done)
	if k.value(1) != 'a' {
		t.Fatal("committed batch must survive crash")
	}
	if k.c.Counters().Get("crash.discarded_batches") != 0 {
		t.Fatal("a committed batch was discarded")
	}
}

func TestUncommittedBatchDiscardedOnCrash(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	batch := k.begin()
	k.stage(batch, 1, 'a')
	k.crash(1000000)
	if k.value(1) != 0 {
		t.Fatal("uncommitted batch must not survive")
	}
	if k.c.Counters().Get("crash.discarded_batches") != 1 {
		t.Fatal("discarded batch not counted")
	}
	// Controller must be usable again.
	nb := k.begin()
	k.stage(nb, 1, 'b')
	if _, err := k.commit(nb, 0); err != nil {
		t.Fatal(err)
	}
	k.crash(0)
	if k.value(1) != 'b' {
		t.Fatal("post-crash batch did not stand")
	}
}

func TestBatchWPQOverflow(t *testing.T) {
	cfg := testCfg(1)
	cfg.DataWPQEntries = 4
	c := New(cfg)
	batch := c.BeginBatch()
	for i := 0; i < 5; i++ {
		batch.AddData(c.TreeBlockLocation(uint64(i), 0))
	}
	_, err := batch.Commit(0)
	var overflow ErrWPQOverflow
	if !errors.As(err, &overflow) {
		t.Fatalf("want ErrWPQOverflow, got %v", err)
	}
	if overflow.Need != 5 || overflow.Cap != 4 {
		t.Fatalf("overflow detail wrong: %+v", overflow)
	}
}

func TestDoubleBeginBatchPanics(t *testing.T) {
	c := New(testCfg(1))
	c.BeginBatch()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second BeginBatch")
		}
	}()
	c.BeginBatch()
}

func TestBatchCountsByKind(t *testing.T) {
	c := New(testCfg(1))
	b := c.BeginBatch()
	b.AddData(c.TreeBlockLocation(0, 0))
	b.AddData(c.TreeBlockLocation(1, 0))
	b.AddPosMap(c.PosMapLocation(0))
	if b.DataCount() != 2 || b.PosMapCount() != 1 {
		t.Fatalf("counts: data=%d posmap=%d", b.DataCount(), b.PosMapCount())
	}
	if _, err := b.Commit(0); err != nil {
		t.Fatal(err)
	}
	if c.Counters().Get("wpq.data.entries") != 2 || c.Counters().Get("wpq.posmap.entries") != 1 {
		t.Fatal("WPQ entry counters wrong")
	}
}

func TestWPQBackpressure(t *testing.T) {
	// With a tiny WPQ, a second large batch must stall on drains from the
	// first.
	cfg := testCfg(1)
	cfg.DataWPQEntries = 2
	cfg.PosMapWPQEntries = 2
	c := New(cfg)
	b1 := c.BeginBatch()
	b1.AddData(c.TreeBlockLocation(0, 0))
	b1.AddData(c.TreeBlockLocation(1, 0))
	d1, err := b1.Commit(0)
	if err != nil {
		t.Fatal(err)
	}
	b2 := c.BeginBatch()
	b2.AddData(c.TreeBlockLocation(2, 0))
	b2.AddData(c.TreeBlockLocation(3, 0))
	d2, err := b2.Commit(d1)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("second batch (%d) should stall behind first (%d) on WPQ slots", d2, d1)
	}
}

func TestMultiChannelFasterPathRead(t *testing.T) {
	// Reading many buckets should be faster with more channels.
	read := func(channels int) Cycle {
		c := New(testCfg(channels))
		var done Cycle
		for b := uint64(0); b < 24; b++ {
			loc := c.TreeBlockLocation(b, 0)
			if d := c.ReadBlock(loc, 0); d > done {
				done = d
			}
		}
		return done
	}
	one, four := read(1), read(4)
	if four >= one {
		t.Fatalf("4-channel read (%d) should beat 1-channel (%d)", four, one)
	}
}

func TestDeviceStatsAggregation(t *testing.T) {
	c := New(testCfg(2))
	c.ReadBlock(c.TreeBlockLocation(0, 0), 0) // channel 0
	c.ReadBlock(c.TreeBlockLocation(1, 0), 0) // channel 1
	s := c.DeviceStats()
	if s.Reads != 2 {
		t.Fatalf("aggregate reads = %d", s.Reads)
	}
}

func TestRegionTreeLocationsDisjoint(t *testing.T) {
	c := New(testCfg(2))
	a := resolved(c, c.RegionTreeLocation(0, 5, 1))
	b := resolved(c, c.RegionTreeLocation(1, 5, 1))
	d := resolved(c, c.RegionTreeLocation(2, 5, 1))
	if a.row == b.row || b.row == d.row {
		t.Fatal("tree regions overlap in the row space")
	}
	if a.channel != b.channel || a.bank != b.bank {
		t.Fatal("region offset should only move rows")
	}
}

func TestSubtreeChannelMapping(t *testing.T) {
	// Deep buckets of one subtree share a channel; shallow buckets
	// round-robin.
	c := New(testCfg(4))
	// Two children of a deep bucket must live on the same channel.
	deep := uint64(1<<10 - 1) // a level-9 bucket... pick a level-10 one
	deep = 1<<11 - 1          // first bucket of level 10 (cap at level>=8 rule)
	left := 2*deep + 1
	right := 2*deep + 2
	if resolved(c, c.TreeBlockLocation(left, 0)).channel != resolved(c, c.TreeBlockLocation(right, 0)).channel {
		t.Fatal("children of a deep bucket should share their subtree's channel")
	}
	// Shallow buckets interleave.
	if resolved(c, c.TreeBlockLocation(1, 0)).channel == resolved(c, c.TreeBlockLocation(2, 0)).channel {
		t.Fatal("shallow buckets should round-robin channels")
	}
}

func TestBatchAbandonLeavesNoTrace(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	b := k.begin()
	k.stage(b, 0, 'x')
	k.abandon(b)
	if k.value(0) != 0 || k.c.Counters().Get("wpq.batches") != 0 {
		t.Fatal("abandoned batch left a trace")
	}
	// A new batch can open and commit.
	nb := k.begin()
	k.stage(nb, 0, 'y')
	if _, err := k.commit(nb, 0); err != nil {
		t.Fatal(err)
	}
	if k.value(0) != 'y' || k.c.Counters().Get("wpq.batches") != 1 {
		t.Fatal("post-abandon batch did not commit")
	}
}

func TestAddAfterCommitPanics(t *testing.T) {
	c := New(testCfg(1))
	b := c.BeginBatch()
	b.AddData(c.TreeBlockLocation(0, 0))
	if _, err := b.Commit(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding to a committed batch")
		}
	}()
	b.AddData(c.TreeBlockLocation(1, 0))
}

// Under eADR the persistence domain drains everything: an open batch and
// in-flight posted writes stand, and nothing counts as lost.
func TestDrainAllAppliesOpenBatch(t *testing.T) {
	k := newCaller(New(testCfg(1)))
	k.posted(1, 'p', 0)
	b := k.begin()
	k.stage(b, 0, 'x')
	k.drain()
	if k.value(0) != 'x' || k.value(1) != 'p' {
		t.Fatal("DrainAll should keep the staged batch and the posted write")
	}
	if k.c.Counters().Get("crash.drained_batches") != 1 {
		t.Fatal("drained batch not counted")
	}
	if k.c.Counters().Get("crash.lost_posted_writes") != 0 {
		t.Fatal("a drained posted write counted as lost")
	}
	k.begin().Abandon() // the drained batch is closed: a new one opens
}

func TestCrashIsolation(t *testing.T) {
	// Crash must not disturb writes that completed strictly before it.
	k := newCaller(New(testCfg(1)))
	_, d1 := k.posted(0, 'n', 0)
	k.posted(1, 'n', d1+100000)
	k.crash(d1) // second write still in flight
	if k.value(0) != 'n' {
		t.Fatal("completed write undone")
	}
	if k.value(1) != 0 {
		t.Fatal("in-flight write survived")
	}
}

// The untimed model keeps the persistence domain and drops the clock:
// every completion is the issue cycle, traffic is still counted, and no
// device exists to schedule on.
func TestUntimedCompletesAtIssue(t *testing.T) {
	cfg := testCfg(2)
	cfg.WriteBufferEntries = 1
	c := NewUntimed(cfg)
	if _, ok := c.model.(untimed); !ok {
		t.Fatalf("NewUntimed built a %T", c.model)
	}
	loc := c.TreeBlockLocation(3, 0)
	if d := c.ReadBlock(loc, 70); d != 70 {
		t.Errorf("read completed at %d, want the issue cycle 70", d)
	}
	if d := c.ReadBucket(loc, 71); d != 71 {
		t.Errorf("bucket read completed at %d, want 71", d)
	}
	for i := 0; i < 3; i++ { // a one-entry write buffer that never fills
		if p, d := c.WriteBlockPosted(loc, 73); p != 73 || d != 73 {
			t.Errorf("posted write %d let the caller proceed at %d and completed at %d, want 73 for both", i, p, d)
		}
	}
	if len(c.inFlight) != 0 {
		t.Errorf("writes complete at issue left %d in the journal", len(c.inFlight))
	}
	b := c.BeginBatch()
	b.AddData(loc)
	b.AddPosMap(c.PosMapLocation(9))
	if d, err := b.Commit(74); err != nil || d != 74 {
		t.Errorf("commit returned %d, %v; want 74, nil", d, err)
	}
	want := map[string]int64{"nvm.reads": int64(1 + cfg.Z), "nvm.writes": 5,
		"wpq.data.entries": 1, "wpq.posmap.entries": 1, "wpq.batches": 1}
	for name, n := range want {
		if got := c.Counters().Get(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if s := c.DeviceStats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("the untimed model reports device traffic: %+v", s)
	}
}

// With a zero-latency device a posted write is durable the cycle it
// issues; batch atomicity and the WPQ capacity check are the domain's
// and hold as under the timed model.
func TestUntimedPersistenceDomain(t *testing.T) {
	cfg := testCfg(1)
	cfg.DataWPQEntries = 2
	c := NewUntimed(cfg)
	k := newCaller(c)

	k.posted(0, 'n', 5)
	open := k.begin()
	k.stage(open, 1, 's')
	k.crash(5)
	if k.value(0) != 'n' || c.Counters().Get("crash.lost_posted_writes") != 0 {
		t.Error("a crash rolled back a posted write that had completed")
	}
	if k.value(1) != 0 || c.Counters().Get("crash.discarded_batches") != 1 {
		t.Error("a crash must discard the open batch whole")
	}

	over := c.BeginBatch()
	for i := uint64(0); i < 3; i++ {
		over.AddData(c.TreeBlockLocation(i, 0))
	}
	var overflow ErrWPQOverflow
	if _, err := over.Commit(6); !errors.As(err, &overflow) || overflow.Need != 3 || overflow.Cap != 2 {
		t.Errorf("a 3-entry batch into a 2-entry WPQ returned %v", err)
	}
	over.Abandon()

	b := k.begin()
	k.stage(b, 1, 't')
	if _, err := k.commit(b, 7); err != nil {
		t.Fatal(err)
	}
	k.crash(7)
	if k.value(1) != 't' {
		t.Error("a committed batch must survive a crash")
	}
}

// The eviction appends Z*(L+1) entries per access: the entry must stay a
// small pointer-free value.
func TestBatchEntryIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(batchEntry{}); size > 32 {
		t.Fatalf("batchEntry is %d bytes, want <= 32", size)
	}
	typ := reflect.TypeOf(batchEntry{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Ptr, reflect.Func, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.String, reflect.UnsafePointer:
			t.Errorf("batchEntry.%s is a %v: the entry must hold no pointers", typ.Field(i).Name, k)
		}
	}
}

type recordingApplier struct{ log *[]string }

func (a recordingApplier) ApplyEntry(tag int) { *a.log = append(*a.log, fmt.Sprintf("tag%d", tag)) }

// One batch may mix both entry forms, in both WPQs. Commit applies the
// tagged entries in staging order; Abandon applies nothing, and neither
// do a crash or an eADR drain of an open batch.
func TestBatchMixedEntryForms(t *testing.T) {
	stage := func(c *Controller, log *[]string) *Batch {
		b := c.BeginBatch()
		b.SetApplier(recordingApplier{log})
		b.AddDataTagged(c.TreeBlockLocation(1, 0), 7)
		b.AddData(c.TreeBlockLocation(2, 0))
		b.AddDataRun(c.TreeBlockLocation(3, 0), 1)
		b.AddPosMap(c.PosMapLocation(4))
		b.AddPosMapTagged(c.PosMapLocation(5), -3)
		b.AddPosMapBlock(c.PosMapLocation(7))
		b.AddDataTagged(c.TreeBlockLocation(6, 0), 2)
		return b
	}
	for _, c := range []*Controller{New(testCfg(1)), NewUntimed(testCfg(1))} {
		var log []string
		b := stage(c, &log)
		if b.DataCount() != 4 || b.PosMapCount() != 3 {
			t.Fatalf("counts = %d data, %d posmap; want 4, 3", b.DataCount(), b.PosMapCount())
		}
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(log), "[tag7 tag-3 tag2]"; got != want {
			t.Fatalf("commit ran %s, want %s", got, want)
		}
		log = nil
		stage(c, &log).Abandon()
		stage(c, &log)
		c.Crash(0)
		stage(c, &log)
		c.DrainAll()
		if len(log) != 0 {
			t.Fatalf("an uncommitted batch applied %v", log)
		}
	}
}

// An untagged entry exists for the timing model alone. The persistence
// domain is the same over either model — per-WPQ counts, traffic
// counters, the refusal at capacity plus one — but over the untimed one
// such an entry is counted and not stored, and staging it allocates
// nothing.
func TestFunctionlessEntriesAreCountedNotStoredWhenUntimed(t *testing.T) {
	cfg := testCfg(1)
	stage := func(c *Controller, applied *[]string, extraData int) *Batch {
		b := c.BeginBatch()
		b.SetApplier(recordingApplier{applied})
		b.AddData(c.TreeBlockLocation(1, 0))
		b.AddPosMap(c.PosMapLocation(9))
		b.AddDataRun(c.TreeBlockLocation(2, 0), cfg.Z)
		b.AddDataRun(c.TreeBlockLocation(3, 0), 0)
		b.AddPosMapTagged(c.PosMapLocation(4), 1)
		b.AddDataRun(c.TreeBlockLocation(5, 0), extraData)
		return b
	}
	timed, untimed := New(cfg), NewUntimed(cfg)
	var ranTimed, ranUntimed []string
	bt, bu := stage(timed, &ranTimed, 0), stage(untimed, &ranUntimed, 0)
	if bt.DataCount() != 1+cfg.Z || bt.PosMapCount() != 2 {
		t.Fatalf("timed counts = %d data, %d posmap; want %d, 2", bt.DataCount(), bt.PosMapCount(), 1+cfg.Z)
	}
	if bu.DataCount() != bt.DataCount() || bu.PosMapCount() != bt.PosMapCount() {
		t.Fatalf("untimed counts = %d data, %d posmap; timed %d, %d", bu.DataCount(), bu.PosMapCount(), bt.DataCount(), bt.PosMapCount())
	}
	if len(bt.entries) != 3+cfg.Z {
		t.Fatalf("the timed batch stored %d entries, want every one (%d)", len(bt.entries), 3+cfg.Z)
	}
	if len(bu.entries) != 1 {
		t.Fatalf("the untimed batch stored %d entries, want the tagged entry alone", len(bu.entries))
	}
	for _, b := range []*Batch{bt, bu} {
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
	}
	if len(ranTimed) != 1 || len(ranUntimed) != 1 {
		t.Fatalf("tagged entry applied %d times timed, %d untimed; want once each", len(ranTimed), len(ranUntimed))
	}
	if a, b := timed.Counters().Snapshot(), untimed.Counters().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("counters diverged:\ntimed   %v\nuntimed %v", a, b)
	}
	if got := untimed.Counters().Get("nvm.writes"); got != int64(3+cfg.Z) {
		t.Fatalf("nvm.writes = %d, want one per staged entry (%d)", got, 3+cfg.Z)
	}

	// One data entry past the WPQ's capacity: the same refusal from both.
	over := cfg.DataWPQEntries - (1 + cfg.Z) + 1
	_, errT := stage(timed, &ranTimed, over).Commit(0)
	_, errU := stage(untimed, &ranUntimed, over).Commit(0)
	var ovT, ovU ErrWPQOverflow
	if !errors.As(errT, &ovT) || !errors.As(errU, &ovU) || ovT != ovU ||
		ovT.Kind != DataEntry || ovT.Need != cfg.DataWPQEntries+1 {
		t.Fatalf("at capacity+1: timed %v, untimed %v", errT, errU)
	}
	timed.openBatch.Abandon()
	untimed.openBatch.Abandon()

	loc, pm := untimed.TreeBlockLocation(7, 0), untimed.PosMapLocation(7)
	allocs := testing.AllocsPerRun(200, func() {
		b := untimed.BeginBatch()
		b.AddDataRun(loc, cfg.Z)
		b.AddData(loc)
		b.AddPosMap(pm)
		if len(b.entries) != 0 {
			t.Fatal("an untagged entry was stored")
		}
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("staging untagged entries on the untimed model allocates %.2f/batch", allocs)
	}
}

// AddDataRun(loc, n) is n AddData(loc): on the timed model, where
// the entries are what enqueue schedules, both forms commit at the same
// cycle and leave the devices in the same state.
func TestAddDataRunTimesLikeSingleEntries(t *testing.T) {
	cfg := testCfg(2)
	runs, singles := New(cfg), New(cfg)
	var tr, ts Cycle
	for round := 0; round < 50; round++ {
		br, bs := runs.BeginBatch(), singles.BeginBatch()
		for bucket := uint64(round); bucket < uint64(round)+12; bucket++ {
			n := int(bucket % uint64(cfg.Z+1))
			br.AddDataRun(runs.TreeBlockLocation(bucket, 0), n)
			for z := 0; z < n; z++ {
				bs.AddData(singles.TreeBlockLocation(bucket, z))
			}
			br.AddPosMap(runs.PosMapLocation(bucket))
			bs.AddPosMap(singles.PosMapLocation(bucket))
		}
		var err error
		if tr, err = br.Commit(tr); err != nil {
			t.Fatal(err)
		}
		if ts, err = bs.Commit(ts); err != nil {
			t.Fatal(err)
		}
		if tr != ts {
			t.Fatalf("round %d: runs commit at cycle %d, single entries at %d", round, tr, ts)
		}
	}
	if tr == 0 {
		t.Fatal("the timed model's clock never moved")
	}
	if a, b := runs.DeviceStats(), singles.DeviceStats(); a != b {
		t.Fatalf("device statistics diverged:\nruns    %+v\nsingles %+v", a, b)
	}
}
