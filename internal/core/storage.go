package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// CommitTicket resolves when the persist barrier covering a commit
// group completes. OnCommit callbacks added before resolution run on
// the backend's persist worker, in registration order; callbacks added
// after run inline. A callback must not block: serve uses it to release
// held replies into buffered channels.
type CommitTicket struct {
	mu   sync.Mutex
	done bool
	err  error
	cbs  []func(error)
}

// OnCommit registers fn to run once the ticket's barrier has completed
// (fn receives the barrier's error, nil on success).
func (t *CommitTicket) OnCommit(fn func(error)) {
	t.mu.Lock()
	if t.done {
		err := t.err
		t.mu.Unlock()
		fn(err)
		return
	}
	t.cbs = append(t.cbs, fn)
	t.mu.Unlock()
}

func (t *CommitTicket) resolve(err error) {
	t.mu.Lock()
	t.done, t.err = true, err
	cbs := t.cbs
	t.cbs = nil
	t.mu.Unlock()
	for _, fn := range cbs {
		fn(err)
	}
}

// Storage returns the durable backend, or nil for the default
// in-memory image.
func (c *Controller) Storage() *filestore.Store { return c.storage }

// Close persists any remaining state of a durable controller, releases
// its backend, and frees the images of the data tree and of every PosMap
// tree, in memory or not. The controller must be idle. Its operations
// return an error afterwards, and a second Close is a no-op.
func (c *Controller) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	defer c.closeImages()
	if c.storage == nil {
		return nil
	}
	var perr error
	if !c.crashed {
		// Flush the open commit group, then run a final serial barrier
		// for any residual dirty state. storage.Close waits out an
		// asynchronous flush before releasing the backend.
		perr = c.FlushCommits()
		if perr == nil {
			perr = c.persistDurable()
		}
	} else if c.ticket != nil {
		// A crashed controller is closed without persisting; release any
		// held commit waiters instead of leaving them hanging.
		t := c.ticket
		c.ticket, c.groupOps = nil, 0
		t.resolve(fmt.Errorf("core: controller closed before group commit"))
	}
	cerr := c.storage.Close()
	if perr != nil {
		return perr
	}
	return cerr
}

// closeImages frees the data tree's image and every PosMap tree's.
func (c *Controller) closeImages() {
	c.ORAM.Image.Close()
	if c.Rec != nil {
		for _, lvl := range c.Rec.Levels {
			lvl.Image.Close()
		}
	}
}

// StorageSupported gates which schemes a durable backend covers: the
// flat Path ORAM family (same coverage as the snapshot format — the
// recursive hierarchy's posmap trees are additional NVM allocations a
// future format revision could append).
func StorageSupported(scheme config.Scheme) error {
	switch scheme {
	case config.SchemeBaseline, config.SchemeFullNVM, config.SchemeFullNVMSTT,
		config.SchemeNaivePSORAM, config.SchemePSORAM, config.SchemeEADRORAM:
		return nil
	}
	return fmt.Errorf("core: durable storage does not cover scheme %v (flat schemes only)", scheme)
}

// mirrorLeaf pushes one durable-PosMap mutation to the backend.
func (c *Controller) mirrorLeaf(a oram.Addr, l oram.Leaf) {
	if c.storage != nil {
		c.storage.SetLeaf(a, l)
	}
}

// syncDurablePosMap pushes the whole durable PosMap to the backend
// (initial creation; eADR's flush-everything power fail).
func (c *Controller) syncDurablePosMap() {
	if c.storage == nil {
		return
	}
	for a := oram.Addr(0); uint64(a) < c.ORAM.NumBlocks(); a++ {
		c.storage.SetLeaf(a, c.durable.Lookup(a))
	}
}

// preparePersist runs the materialization barrier (image overlay →
// store, so the backend serializes current bytes) and pushes the
// version cursor and trusted root. Every persist path goes through it.
func (c *Controller) preparePersist() {
	c.ORAM.Image.MaterializePending()
	c.storage.SetVerSeq(c.ORAM.VerSeq())
	if c.Merkle != nil {
		c.storage.SetRoot(c.Merkle.Root())
	}
}

// persistDurable pushes the version cursor and trusted root, then runs
// the backend's persist barrier. Called at the end of every successful
// access (when group commit is off), at creation, and at Close; an
// interrupted access skips it, so the on-disk state stays at the
// previous access boundary.
func (c *Controller) persistDurable() error {
	if c.storage == nil {
		return nil
	}
	c.preparePersist()
	if err := c.storage.Persist(); err != nil {
		return fmt.Errorf("core: persist barrier: %w", err)
	}
	c.counters.Inc("storage.persists")
	return nil
}

// commitDurable ends a successful access's durable commit: the serial
// per-access barrier by default, or group accounting under GroupCommit
// (flushing when the open group reaches MaxOps).
func (c *Controller) commitDurable() error {
	if c.group.MaxOps <= 1 {
		return c.persistDurable()
	}
	if c.ticket == nil {
		c.ticket = &CommitTicket{}
	}
	c.lastTicket = c.ticket
	c.groupOps++
	if c.groupOps >= c.group.MaxOps {
		return c.FlushCommits()
	}
	return nil
}

// FlushCommits closes the open commit group and starts its persist
// barrier on the backend's worker; the group's CommitTicket resolves
// when it completes. The returned error covers starting the barrier
// (including a previous barrier's sticky failure) — the barrier's own
// failure reaches callers through the ticket and fails the next flush.
// No-op when no group is open. Must be called from the controller's
// owning thread.
func (c *Controller) FlushCommits() error {
	if c.storage == nil || c.ticket == nil {
		return nil
	}
	t, n := c.ticket, c.groupOps
	c.ticket, c.groupOps = nil, 0
	c.preparePersist()
	obs := c.onGroupCommit
	start := time.Now()
	done := func(err error) {
		if obs != nil {
			obs(n, int64(time.Since(start)))
		}
		t.resolve(err)
	}
	if err := c.storage.PersistAsync(done); err != nil {
		err = fmt.Errorf("core: persist barrier: %w", err)
		t.resolve(err)
		return err
	}
	c.counters.Inc("storage.persists")
	return nil
}

// OnCommit registers fn to run once the most recently completed
// access's mutations are durable: on its covering group's ticket under
// group commit, or inline when the controller is already at a durable
// boundary (group commit off, no durable backend, or everything
// flushed). fn must not block; it may run on the backend's persist
// worker.
func (c *Controller) OnCommit(fn func(error)) {
	if c.lastTicket != nil {
		c.lastTicket.OnCommit(fn)
		return
	}
	fn(nil)
}

// CommitPending reports whether an open commit group holds accesses
// that are not yet durable (callers use it to schedule a MaxDelay
// flush).
func (c *Controller) CommitPending() bool { return c.ticket != nil }

// SetCommitObserver installs fn to observe every flushed group: the
// number of accesses the group covered and the barrier's wall time from
// flush to durability. fn runs on the backend's persist worker.
func (c *Controller) SetCommitObserver(fn func(ops int, persistNanos int64)) {
	c.onGroupCommit = fn
}
