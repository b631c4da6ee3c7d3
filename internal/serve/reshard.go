package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/storage/filestore"
)

// Reshard migrates the pool onto newShards independent stores while it
// keeps serving. The keyspace re-stripes from addr%oldS to addr%newS
// one old stripe at a time:
//
//  1. The stripe is frozen: the routing table is swapped to mark it
//     MIGRATING (requests to it fail fast with ErrResharding; every
//     other stripe keeps serving), and a lock barrier on the old
//     shard's queue guarantees no straggler enqueue from the previous
//     table is still in flight.
//  2. The frozen shard's blocks are extracted on its own worker
//     goroutine (preserving the single-threaded backend contract). For
//     WPQ-persistent schemes the extraction goes through the durable
//     image — core.SaveDurable, then core.LoadDurable, then reads on
//     the loaded controller — so what migrates is exactly the state §4
//     guarantees survives a power loss, and the snapshot/restore path
//     is exercised on every reshard. Other schemes extract live.
//  3. The blocks replay as ordinary writes into the new shard set,
//     then the table swaps the stripe to NEW: reads route to the new
//     set, and writes are mirrored back to the old shard so an abort
//     (or a crash before the commit point) loses nothing.
//
// When every stripe has moved, durable pools commit the new topology
// via the filestore TOPOLOGY manifest (the single crash-atomic commit
// point — recovery adopts whichever topology the manifest names), the
// stable new table is published, and the old shard set is drained,
// closed, and deleted.
//
// Reshard returns ErrReshardBusy if another reshard is in flight, and
// aborts cleanly — reverting to the old topology with no acknowledged
// write lost — on context cancellation, pool close, or migration error.
func (p *Pool) Reshard(ctx context.Context, newShards int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if newShards <= 0 {
		return fmt.Errorf("serve: reshard to %d shards", newShards)
	}
	if uint64(newShards) > p.opts.NumBlocks {
		return fmt.Errorf("serve: %d shards need at least %d blocks, have %d",
			newShards, newShards, p.opts.NumBlocks)
	}
	if !p.reshardMu.TryLock() {
		return ErrReshardBusy
	}
	defer p.reshardMu.Unlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	rt := p.router.Load() // stable: reshardMu is held
	oldS := len(rt.shards)
	if newShards == oldS {
		return nil
	}
	oldEpoch, newEpoch := rt.epoch, rt.epoch+1

	// Build the replacement shard set. Durable pools build it directly
	// in the new epoch's directory: until the TOPOLOGY manifest commits,
	// that directory is debris a crash leaves behind and the next open's
	// CleanStale removes.
	next := make([]*shard, newShards)
	fail := func(err error) error {
		p.abortReshard(rt, next, newEpoch)
		return err
	}
	for s := 0; s < newShards; s++ {
		dir := ""
		if p.storeRoot != "" {
			dir = filestore.ShardDir(p.storeRoot, newEpoch, s)
		}
		b, err := p.buildBackend(s, localBlocks(p.opts.NumBlocks, newShards, s), dir)
		if err != nil {
			return fail(fmt.Errorf("serve: reshard: build shard %d: %w", s, err))
		}
		next[s] = p.newShard(s, b)
	}

	state := make([]stripeState, oldS)
	for o := 0; o < oldS; o++ {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("serve: reshard aborted: %w", err))
		}
		if p.closed.Load() {
			return fail(ErrPoolClosed)
		}
		// Freeze stripe o: publish MIGRATING, then barrier on the old
		// shard's closeMu — every submit that routed against an older
		// table holds the read side, so once the write side is acquired
		// all such enqueues have landed and will drain ahead of the
		// extraction exec below.
		old := rt.shards[o]
		state[o] = stripeMigrating
		p.publish(oldEpoch, rt.shards, next, state)
		old.closeMu.Lock()
		old.closeMu.Unlock() //nolint:staticcheck // empty critical section IS the barrier
		blocks, err := p.extractStripe(ctx, old, localBlocks(p.opts.NumBlocks, oldS, o))
		if err != nil {
			return fail(fmt.Errorf("serve: reshard: extract stripe %d: %w", o, err))
		}
		for i, v := range blocks {
			if v == nil {
				continue // never-written block; new stores zero-fill
			}
			g := uint64(i)*uint64(oldS) + uint64(o)
			if err := p.retrySubmit(ctx, next[g%uint64(newShards)], nil, writeRequest(oram.Addr(g/uint64(newShards)), v)); err != nil {
				return fail(fmt.Errorf("serve: reshard: replay block %d: %w", g, err))
			}
		}
		// Unfreeze onto the new set: reads route there, writes dual-write
		// back into the old shard until the commit point.
		state[o] = stripeNew
		p.publish(oldEpoch, rt.shards, next, state)
	}

	// Commit. For durable pools the TOPOLOGY rename is the crash-atomic
	// commit point; it happens BEFORE the router swap so a crash between
	// the two recovers onto the new (fully migrated, dual-written) epoch
	// rather than resurrecting an old epoch that is about to be deleted.
	if p.storeRoot != "" {
		if err := filestore.CommitTopology(p.storeRoot, filestore.Topology{Epoch: newEpoch, Shards: newShards}); err != nil {
			return fail(fmt.Errorf("serve: reshard: commit topology: %w", err))
		}
	}
	p.router.Store(&routeTable{epoch: newEpoch, shards: next})
	p.retire(rt.shards)
	if p.storeRoot != "" {
		if err := filestore.RemoveEpoch(p.storeRoot, oldEpoch); err != nil {
			// The new topology is committed and serving; stale stores are
			// debris the next open's CleanStale retries.
			return fmt.Errorf("serve: reshard committed; old epoch cleanup: %w", err)
		}
	}
	return nil
}

// publish installs a fresh routing table; the per-stripe state slice is
// copied because published tables are immutable.
func (p *Pool) publish(epoch uint64, shards, next []*shard, state []stripeState) {
	p.router.Store(&routeTable{
		epoch:  epoch,
		shards: shards,
		next:   next,
		state:  append([]stripeState(nil), state...),
	})
}

// extractStripe reads every block a frozen shard owns, on the shard's
// own worker goroutine. The returned slice is indexed by shard-local
// address; nil entries are never-written (all-zero) blocks that need no
// replay. WPQ-persistent backends are extracted through their durable
// image (SaveDurable -> LoadDurable -> read), so migration carries
// exactly the crash-surviving state.
func (p *Pool) extractStripe(ctx context.Context, sh *shard, local uint64) ([][]byte, error) {
	blocks := make([][]byte, local)
	fn := func(b Backend) error {
		// The snapshot detour is sound only for schemes whose durable
		// image is COMPLETE — the WPQ-persistent flat family. eADR is
		// Persistent() but keeps its stash in the (unserialized) eADR
		// domain, so a snapshot of it would drop in-flight blocks;
		// those schemes extract live instead.
		scheme := b.Scheme()
		wpqDurable := scheme == config.SchemePSORAM || scheme == config.SchemeNaivePSORAM
		peek := b.Peek
		if sn, ok := b.(snapshotter); ok && wpqDurable {
			var buf bytes.Buffer
			if err := sn.SaveDurable(&buf); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			ctl, err := core.LoadDurable(&buf, sn.SnapshotConfig(), core.Options{Untimed: true})
			if err != nil {
				return fmt.Errorf("snapshot load: %w", err)
			}
			defer ctl.Close() // in memory: frees its images
			peek = ctl.Peek
		}
		for i := uint64(0); i < local; i++ {
			v, err := peek(oram.Addr(i))
			if err != nil {
				return err
			}
			if !allZero(v) {
				blocks[i] = append([]byte(nil), v...)
			}
		}
		return nil
	}
	if err := p.retrySubmit(ctx, sh, nil, func(r *request) { r.fn = fn }); err != nil {
		return nil, err
	}
	return blocks, nil
}

// abortReshard reverts to the old topology: the stable old table is
// republished (safe — MIGRATING stripes acknowledged nothing during
// the freeze, and NEW stripes dual-wrote every acknowledged write back
// into their old shard), then the half-built new set is drained,
// closed, and its uncommitted epoch directory deleted.
func (p *Pool) abortReshard(rt *routeTable, next []*shard, newEpoch uint64) {
	p.router.Store(&routeTable{epoch: rt.epoch, shards: rt.shards})
	built := next[:0]
	for _, sh := range next {
		if sh != nil {
			built = append(built, sh)
		}
	}
	p.retire(built)
	if p.storeRoot != "" {
		filestore.RemoveEpoch(p.storeRoot, newEpoch)
	}
}

// retire drains and closes a shard set no submit can reach anymore (no
// routing table references it, or the pool is closing): close each queue
// under its write lock (in-flight submitters either finished or will
// observe sh.closed and re-route), join every worker, and only then close
// the backends that implement io.Closer — they are single-threaded; a
// core shard's Close frees its images, after the final persist barrier
// for a file-backed one. It returns the first close error.
func (p *Pool) retire(shards []*shard) error {
	for _, sh := range shards {
		sh.closeMu.Lock()
		if !sh.closed {
			sh.closed = true
			close(sh.queue)
		}
		sh.closeMu.Unlock()
	}
	for _, sh := range shards {
		<-sh.done
	}
	var first error
	for _, sh := range shards {
		if c, ok := sh.backend.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = fmt.Errorf("serve: shard %d close: %w", sh.id, err)
			}
		}
	}
	return first
}

// allZero reports whether every byte of v is zero (a never-written
// block — fresh stores zero-fill, so it needs no replay).
func allZero(v []byte) bool {
	for _, b := range v {
		if b != 0 {
			return false
		}
	}
	return true
}
