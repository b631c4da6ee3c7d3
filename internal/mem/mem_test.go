package mem

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/config"
)

func testCfg(channels int) config.Config {
	c := config.Default()
	c.Channels = channels
	return c
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

func TestPostedWriteDoesNotStallWhenBufferEmpty(t *testing.T) {
	c := New(testCfg(1))
	applied := false
	proceed := c.WriteBlockPosted(c.TreeBlockLocation(0, 0), 50, func() func() {
		applied = true
		return func() { applied = false }
	})
	if proceed != 50 {
		t.Fatalf("posted write stalled caller to %d", proceed)
	}
	if !applied {
		t.Fatal("posted write did not apply functionally")
	}
}

func TestPostedWriteBufferFullStalls(t *testing.T) {
	cfg := testCfg(1)
	cfg.WriteBufferEntries = 2
	c := New(cfg)
	loc := c.TreeBlockLocation(0, 0)
	p1 := c.WriteBlockPosted(loc, 0, nil)
	p2 := c.WriteBlockPosted(loc, 0, nil)
	p3 := c.WriteBlockPosted(loc, 0, nil)
	if p1 != 0 || p2 != 0 {
		t.Fatalf("first writes should not stall: %d %d", p1, p2)
	}
	if p3 == 0 {
		t.Fatalf("third write should stall on a 2-entry buffer")
	}
}

func TestSyncWriteStalls(t *testing.T) {
	c := New(testCfg(1))
	done := c.WriteBlockSync(c.TreeBlockLocation(0, 0), 10, nil)
	if done <= 10 {
		t.Fatalf("sync write returned %d, want completion after earliest", done)
	}
}

func TestCrashUndoesInFlightPostedWrites(t *testing.T) {
	c := New(testCfg(1))
	value := "old"
	done := c.WriteBlockSync(c.TreeBlockLocation(0, 0), 0, func() func() {
		value = "new"
		return func() { value = "old" }
	})
	// Crash strictly before completion: write is lost.
	c.Crash(done - 1)
	if value != "old" {
		t.Fatalf("crash before completion should undo write, value=%q", value)
	}
}

func TestCrashKeepsCompletedWrites(t *testing.T) {
	c := New(testCfg(1))
	value := "old"
	done := c.WriteBlockSync(c.TreeBlockLocation(0, 0), 0, func() func() {
		value = "new"
		return func() { value = "old" }
	})
	c.Crash(done) // at/after completion: durable
	if value != "new" {
		t.Fatalf("completed write should survive crash, value=%q", value)
	}
}

func TestCrashUndoOrderNewestFirst(t *testing.T) {
	c := New(testCfg(1))
	loc := c.TreeBlockLocation(0, 0)
	history := []string{"v0"}
	write := func(v string) {
		c.WriteBlockPosted(loc, 0, func() func() {
			prev := history[len(history)-1]
			history = append(history, v)
			return func() {
				if history[len(history)-1] != v {
					t.Fatalf("undo out of order: top is %q, undoing %q", history[len(history)-1], v)
				}
				history = history[:len(history)-1]
				_ = prev
			}
		})
	}
	write("v1")
	write("v2")
	c.Crash(0)
	if history[len(history)-1] != "v0" {
		t.Fatalf("after crash value = %q, want v0", history[len(history)-1])
	}
}

func TestBatchAtomicCommit(t *testing.T) {
	c := New(testCfg(1))
	a, b := 0, 0
	batch := c.BeginBatch()
	batch.AddData(c.TreeBlockLocation(1, 0), func() { a = 1 })
	batch.AddPosMap(c.PosMapLocation(7), func() { b = 1 })
	if a != 0 || b != 0 {
		t.Fatal("batch applied before commit")
	}
	done, err := batch.Commit(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatal("batch not applied at commit")
	}
	// Durable immediately, even if we crash right at commit cycle.
	c.Crash(done)
	if a != 1 || b != 1 {
		t.Fatal("committed batch must survive crash")
	}
}

func TestUncommittedBatchDiscardedOnCrash(t *testing.T) {
	c := New(testCfg(1))
	a := 0
	batch := c.BeginBatch()
	batch.AddData(c.TreeBlockLocation(1, 0), func() { a = 1 })
	c.Crash(1000000)
	if a != 0 {
		t.Fatal("uncommitted batch must not apply")
	}
	if c.Counters().Get("crash.discarded_batches") != 1 {
		t.Fatal("discarded batch not counted")
	}
	// Controller must be usable again.
	nb := c.BeginBatch()
	nb.AddData(c.TreeBlockLocation(1, 0), func() { a = 2 })
	if _, err := nb.Commit(0); err != nil {
		t.Fatal(err)
	}
	if a != 2 {
		t.Fatal("post-crash batch did not apply")
	}
}

func TestBatchWPQOverflow(t *testing.T) {
	cfg := testCfg(1)
	cfg.DataWPQEntries = 4
	c := New(cfg)
	batch := c.BeginBatch()
	for i := 0; i < 5; i++ {
		batch.AddData(c.TreeBlockLocation(uint64(i), 0), nil)
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
	b.AddData(c.TreeBlockLocation(0, 0), nil)
	b.AddData(c.TreeBlockLocation(1, 0), nil)
	b.AddPosMap(c.PosMapLocation(0), nil)
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
	b1.AddData(c.TreeBlockLocation(0, 0), nil)
	b1.AddData(c.TreeBlockLocation(1, 0), nil)
	d1, err := b1.Commit(0)
	if err != nil {
		t.Fatal(err)
	}
	b2 := c.BeginBatch()
	b2.AddData(c.TreeBlockLocation(2, 0), nil)
	b2.AddData(c.TreeBlockLocation(3, 0), nil)
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
	c := New(testCfg(1))
	x := 0
	b := c.BeginBatch()
	b.AddData(c.TreeBlockLocation(0, 0), func() { x = 1 })
	b.Abandon()
	if x != 0 {
		t.Fatal("abandoned batch applied")
	}
	// A new batch can open and commit.
	nb := c.BeginBatch()
	nb.AddData(c.TreeBlockLocation(0, 0), func() { x = 2 })
	if _, err := nb.Commit(0); err != nil {
		t.Fatal(err)
	}
	if x != 2 {
		t.Fatal("post-abandon batch did not apply")
	}
}

func TestAddAfterCommitPanics(t *testing.T) {
	c := New(testCfg(1))
	b := c.BeginBatch()
	b.AddData(c.TreeBlockLocation(0, 0), nil)
	if _, err := b.Commit(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding to a committed batch")
		}
	}()
	b.AddData(c.TreeBlockLocation(1, 0), nil)
}

func TestDrainAllAppliesOpenBatch(t *testing.T) {
	c := New(testCfg(1))
	x := 0
	b := c.BeginBatch()
	b.AddData(c.TreeBlockLocation(0, 0), func() { x = 1 })
	c.DrainAll() // eADR: the persistence domain drains everything
	if x != 1 {
		t.Fatal("DrainAll should apply the staged batch")
	}
	if c.Counters().Get("crash.drained_batches") != 1 {
		t.Fatal("drained batch not counted")
	}
	_ = b
}

func TestCrashIsolation(t *testing.T) {
	// Crash must not disturb writes that completed strictly before it.
	c := New(testCfg(1))
	loc := c.TreeBlockLocation(0, 0)
	v1, v2 := "old", "old"
	d1 := c.WriteBlockSync(loc, 0, func() func() { v1 = "new"; return func() { v1 = "old" } })
	c.WriteBlockSync(loc, d1+100000, func() func() { v2 = "new"; return func() { v2 = "old" } })
	c.Crash(d1) // second write still in flight
	if v1 != "new" {
		t.Fatal("completed write undone")
	}
	if v2 != "old" {
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
	if d := c.WriteBlockSync(loc, 72, nil); d != 72 {
		t.Errorf("sync write completed at %d, want 72", d)
	}
	for i := 0; i < 3; i++ { // a one-entry write buffer that never fills
		if p := c.WriteBlockPosted(loc, 73, nil); p != 73 {
			t.Errorf("posted write %d let the caller proceed at %d, want 73", i, p)
		}
	}
	b := c.BeginBatch()
	b.AddData(loc, nil)
	b.AddPosMap(c.PosMapLocation(9), nil)
	if d, err := b.Commit(74); err != nil || d != 74 {
		t.Errorf("commit returned %d, %v; want 74, nil", d, err)
	}
	want := map[string]int64{"nvm.reads": int64(1 + cfg.Z), "nvm.writes": 6,
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
	loc := c.TreeBlockLocation(0, 0)

	posted, staged := "old", 0
	c.WriteBlockPosted(loc, 5, func() func() { posted = "new"; return func() { posted = "old" } })
	open := c.BeginBatch()
	open.AddData(loc, func() { staged = 1 })
	c.Crash(5)
	if posted != "new" {
		t.Error("a crash rolled back a posted write that had completed")
	}
	if staged != 0 || c.Counters().Get("crash.discarded_batches") != 1 {
		t.Error("a crash must discard the open batch whole")
	}

	over := c.BeginBatch()
	for i := uint64(0); i < 3; i++ {
		over.AddData(c.TreeBlockLocation(i, 0), nil)
	}
	var overflow ErrWPQOverflow
	if _, err := over.Commit(6); !errors.As(err, &overflow) || overflow.Need != 3 || overflow.Cap != 2 {
		t.Errorf("a 3-entry batch into a 2-entry WPQ returned %v", err)
	}
	over.Abandon()

	b := c.BeginBatch()
	b.AddData(loc, func() { staged = 2 })
	if _, err := b.Commit(7); err != nil {
		t.Fatal(err)
	}
	c.Crash(7)
	if staged != 2 {
		t.Error("a committed batch must survive a crash")
	}
}

// The eviction appends Z*(L+1) entries per access: the entry must stay a
// small pointer-free value (closures live in Batch.fns).
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

// One batch may mix every entry form. Commit runs tagged and closure
// applies in staging order and no undo; Abandon runs only the undos,
// newest first.
func TestBatchMixedEntryForms(t *testing.T) {
	stage := func(c *Controller, log *[]string) *Batch {
		note := func(s string) func() { return func() { *log = append(*log, s) } }
		b := c.BeginBatch()
		b.SetApplier(recordingApplier{log})
		b.AddDataTagged(c.TreeBlockLocation(1, 0), 7)
		b.AddData(c.TreeBlockLocation(2, 0), note("apply-a"))
		b.AddDataApplied(c.TreeBlockLocation(3, 0), note("undo-a"))
		b.AddPosMap(c.PosMapLocation(4), nil)
		b.AddPosMapTagged(c.PosMapLocation(5), -3)
		b.AddPosMapBlockApplied(c.PosMapLocation(6), note("undo-b"))
		b.AddPosMapBlock(c.PosMapLocation(7), note("apply-b"))
		return b
	}
	for _, c := range []*Controller{New(testCfg(1)), NewUntimed(testCfg(1))} {
		var log []string
		b := stage(c, &log)
		if b.DataCount() != 3 || b.PosMapCount() != 4 {
			t.Fatalf("counts = %d data, %d posmap; want 3, 4", b.DataCount(), b.PosMapCount())
		}
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(log), "[tag7 apply-a tag-3 apply-b]"; got != want {
			t.Fatalf("commit ran %s, want %s", got, want)
		}
		log = nil
		stage(c, &log).Abandon()
		if got, want := fmt.Sprint(log), "[undo-b undo-a]"; got != want {
			t.Fatalf("abandon ran %s, want %s", got, want)
		}
	}
}

// An entry with no functional mutation exists for the timing model
// alone. The persistence domain is the same over either model — per-WPQ
// counts, traffic counters, the refusal at capacity plus one — but over
// the untimed one such an entry is counted and not stored, and staging
// it allocates nothing.
func TestFunctionlessEntriesAreCountedNotStoredWhenUntimed(t *testing.T) {
	cfg := testCfg(1)
	stage := func(c *Controller, applied *int, extraData int) *Batch {
		b := c.BeginBatch()
		b.AddData(c.TreeBlockLocation(1, 0), nil)
		b.AddPosMap(c.PosMapLocation(9), nil)
		b.AddDataRun(c.TreeBlockLocation(2, 0), cfg.Z)
		b.AddDataRun(c.TreeBlockLocation(3, 0), 0)
		b.AddPosMapBlock(c.PosMapLocation(4), func() { *applied++ })
		b.AddDataRun(c.TreeBlockLocation(5, 0), extraData)
		return b
	}
	timed, untimed := New(cfg), NewUntimed(cfg)
	var ranTimed, ranUntimed int
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
		t.Fatalf("the untimed batch stored %d entries, want the closure entry alone", len(bu.entries))
	}
	for _, b := range []*Batch{bt, bu} {
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
	}
	if ranTimed != 1 || ranUntimed != 1 {
		t.Fatalf("closure entry applied %d times timed, %d untimed; want once each", ranTimed, ranUntimed)
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
		b.AddData(loc, nil)
		b.AddPosMap(pm, nil)
		if len(b.entries) != 0 {
			t.Fatal("a function-less entry was stored")
		}
		if _, err := b.Commit(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("staging function-less entries on the untimed model allocates %.2f/batch", allocs)
	}
}

// AddDataRun(loc, n) is n AddData(loc, nil): on the timed model, where
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
				bs.AddData(singles.TreeBlockLocation(bucket, z), nil)
			}
			br.AddPosMap(runs.PosMapLocation(bucket), nil)
			bs.AddPosMap(singles.PosMapLocation(bucket), nil)
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
