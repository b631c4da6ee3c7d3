package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cryptoeng"
	"repro/internal/mem"
	"repro/internal/oram"
)

// The ladder prices each layer on its own: one goroutine drives the same
// seeded address stream through every rung, from one path's worth of AES
// up to a request over loopback TCP. A rung's self time is its cost
// minus the cost of the rung it contains (`below`). The three component
// rungs at the bottom are parts of core.access, not steps under it:
// core.access keeps evicted blocks as plaintext and seals lazily, so it
// does not pay a full path of AES per access.
type rung struct {
	name   string
	levels []int  // tree heights it runs at; 0 = the rung has no tree
	below  string // the rung whose cost this one contains
}

// ladderLevels are the tree heights of the in-memory rungs: the shard
// heights of net-shallow and mem-deep. The filestore rungs run at L=8
// only: a 16-level store is 16384 chunk files, and creating it on disk
// takes longer than the rest of the run.
var ladderLevels = []int{8, 16}

var ladderRungs = []rung{
	{"cryptoeng.seal_path", ladderLevels, ""},
	{"oram.path_io", ladderLevels, "cryptoeng.seal_path"},
	{"mem.replay_path", ladderLevels, ""},
	{"core.access", ladderLevels, "mem.replay_path"},
	{"store.access", ladderLevels, "core.access"},
	{"serve.access", ladderLevels, "store.access"},
	{"netserve.access", ladderLevels, "serve.access"},
	{"filestore.k1_access", []int{8}, "store.access"},
	{"filestore.k16_access", []int{8}, "store.access"},
	{"serve.null_access", []int{0}, ""},
	{"netserve.null_access", []int{0}, "serve.null_access"},
}

func rungMetric(name string, level int, what string) string {
	if level == 0 {
		return name + "." + what
	}
	return fmt.Sprintf("%s.L%d.%s", name, level, what)
}

// ladderBlocks is the logical block count of a rung's tree: one shard of
// net-shallow at L=8, one shard of mem-deep at L=16.
func ladderBlocks(level int) uint64 {
	if level == 16 {
		return 65536
	}
	return 512
}

// ladderOps is how many operations of the stream a rung measures.
const ladderOps = 20000

type ladderOp struct {
	write bool
	addr  uint64
}

// ladderStream is the address stream every rung of one height replays:
// uniform addresses, half of them writes.
func ladderStream(seed, blocks uint64, n int) []ladderOp {
	r := newPRNG(seed, 0x1adde5, blocks)
	ops := make([]ladderOp, n)
	for i := range ops {
		ops[i] = ladderOp{write: r.next()&1 == 1, addr: r.next() % blocks}
	}
	return ops
}

// timed is one rung about to be measured: n calls of f.
type timed struct {
	name  string
	level int
	n     int
	f     func(i int)
}

// measureBlocks is how many blocks each rung's calls are cut into.
const measureBlocks = 5

// ladder holds the rungs measured so far, by rung name and height.
type ladder struct {
	seed   uint64
	ns     map[string]float64
	allocs map[string]float64
	simCyc map[int]float64
	err    error // first error a measured call returned
}

// measure times the rungs block by block, taking turns: block 0 of every
// rung, then block 1 of every rung, and so on, so a slow spell of the
// machine falls on all of them and not on one. A rung's cost is its
// fastest block's nanoseconds per call - what disturbs a block on a
// shared machine only ever slows it - and its mean allocations per call,
// counted over the whole process because the serving rungs do part of
// their work on other goroutines.
func (ld *ladder) measure(rungs ...timed) {
	best := make([]float64, len(rungs))
	mallocs := make([]uint64, len(rungs))
	var ms0, ms1 runtime.MemStats
	for b := 0; b < measureBlocks; b++ {
		for k, r := range rungs {
			lo, hi := r.n*b/measureBlocks, r.n*(b+1)/measureBlocks
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				r.f(i)
			}
			per := float64(time.Since(t0).Nanoseconds()) / float64(hi-lo)
			runtime.ReadMemStats(&ms1)
			mallocs[k] += ms1.Mallocs - ms0.Mallocs
			if b == 0 || per < best[k] {
				best[k] = per
			}
		}
	}
	for k, r := range rungs {
		key := rungMetric(r.name, r.level, "ns")
		ld.ns[key], ld.allocs[key] = best[k], float64(mallocs[k])/float64(r.n)
	}
}

// runLadder runs every rung and records ns, allocs and self_ns per rung
// and height, plus the core rung's simulated cycles per access.
func runLadder(ctx context.Context, seed uint64, res *result) error {
	ld := &ladder{seed: seed,
		ns: make(map[string]float64), allocs: make(map[string]float64), simCyc: make(map[int]float64)}
	for _, level := range ladderLevels {
		if err := ld.runLevel(ctx, level); err != nil {
			return fmt.Errorf("ladder L=%d: %w", level, err)
		}
	}
	if err := ld.runNull(ctx); err != nil {
		return fmt.Errorf("ladder null rungs: %w", err)
	}
	for _, r := range ladderRungs {
		for _, level := range r.levels {
			key := rungMetric(r.name, level, "ns")
			self := ld.ns[key]
			if r.below != "" {
				self -= ld.ns[rungMetric(r.below, level, "ns")]
			}
			res.set(key, ld.ns[key])
			res.set(rungMetric(r.name, level, "allocs"), ld.allocs[key])
			res.set(rungMetric(r.name, level, "self_ns"), self)
		}
	}
	for _, level := range ladderLevels {
		res.set(fmt.Sprintf("mem.sim_cycles_per_access.L%d", level), ld.simCyc[level])
	}
	return nil
}

// accessor is one way of reaching a store; the rungs from core.access up
// differ only in this.
type accessor func(op ladderOp, data []byte) error

// warm writes every block once, so the tree holds real blocks and the
// controller's plaintext overlay is populated as it is in the serving
// workloads after their set-up.
func warm(level int, acc accessor) error {
	data := make([]byte, blockBytes)
	for a := uint64(0); a < ladderBlocks(level); a++ {
		fillValue(data, a, 1)
		if err := acc(ladderOp{write: true, addr: a}, data); err != nil {
			return err
		}
	}
	return nil
}

// replay is the stream through acc, as a rung to measure; the first
// error lands in ld.err.
func (ld *ladder) replay(name string, level int, ops []ladderOp, acc accessor) timed {
	data := make([]byte, blockBytes)
	return timed{name: name, level: level, n: len(ops), f: func(i int) {
		if err := acc(ops[i], data); err != nil && ld.err == nil {
			ld.err = fmt.Errorf("%s: %w", name, err)
		}
	}}
}

// via reaches a store through a serving client.
func via(ctx context.Context, c client) accessor {
	return func(op ladderOp, data []byte) error {
		if op.write {
			return c.Write(ctx, op.addr, data)
		}
		_, err := c.Read(ctx, op.addr)
		return err
	}
}

// storeAccessor reaches a psoram.Store.
func storeAccessor(st *psoram.Store) accessor {
	return func(op ladderOp, data []byte) error {
		if op.write {
			return st.Write(op.addr, data)
		}
		_, err := st.Read(op.addr)
		return err
	}
}

// loopbackPool is a one-shard pool with a netserve server and a
// connection in front of it: the two serving rungs' subject.
func loopbackPool(blocks uint64, opts ...psoram.PoolOption) (*system, error) {
	pool, err := psoram.NewPool(blocks, append([]psoram.PoolOption{psoram.WithShards(1)}, opts...)...)
	if err != nil {
		return nil, err
	}
	sys := &system{w: workload{TCP: true}, pool: pool}
	if err := sys.front(); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (ld *ladder) runLevel(ctx context.Context, level int) error {
	blocks := ladderBlocks(level)
	ops := ladderStream(ld.seed, blocks, ladderOps)
	if err := ld.componentRungs(level, ops); err != nil {
		return err
	}

	// core.access: the controller itself, built the way a shard builds it.
	cfg := config.Default()
	cfg.Seed = ld.seed
	ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: blocks, Levels: level})
	if err != nil {
		return err
	}
	coreAcc := func(op ladderOp, data []byte) error {
		o, d := oram.OpRead, []byte(nil)
		if op.write {
			o, d = oram.OpWrite, data
		}
		_, err := ctl.Access(o, oram.Addr(op.addr), d)
		return err
	}
	// store.access: the same controller behind the public Store.
	st, err := psoram.New(blocks, psoram.WithLevels(level), psoram.WithRNGSeed(ld.seed))
	if err != nil {
		return err
	}
	// serve.access and netserve.access: a one-shard pool reached by one
	// synchronous client in process, and the same pool through netserve
	// over loopback with one connection and one request in flight.
	sys, err := loopbackPool(blocks, psoram.WithPoolLevels(level), psoram.WithPoolSeed(ld.seed))
	if err != nil {
		return err
	}
	defer sys.close()
	for _, acc := range []accessor{coreAcc, storeAccessor(st), via(ctx, sys.pool)} {
		if err := warm(level, acc); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	// The simulated cycles of the measured stream ride on the core rung:
	// exact for a fixed seed, and a host-only optimisation must leave
	// them identical.
	cyc0 := ctl.Now()
	ld.measure(
		ld.replay("core.access", level, ops, coreAcc),
		ld.replay("store.access", level, ops, storeAccessor(st)),
		ld.replay("serve.access", level, ops, via(ctx, sys.pool)),
		ld.replay("netserve.access", level, ops[:len(ops)/2], via(ctx, sys.clients[0])),
	)
	ld.simCyc[level] = float64(ctl.Now()-cyc0) / float64(len(ops))
	if ld.err != nil || level != 8 {
		return ld.err
	}
	return ld.filestoreRungs(level, ops)
}

// runNull measures the two serving rungs with the protocol removed.
func (ld *ladder) runNull(ctx context.Context) error {
	ops := ladderStream(ld.seed, ladderBlocks(0), ladderOps)
	sys, err := loopbackPool(ladderBlocks(0), psoram.WithPoolFactory(nullFactory))
	if err != nil {
		return err
	}
	defer sys.close()
	if err := warm(0, via(ctx, sys.pool)); err != nil {
		return err
	}
	ld.measure(
		ld.replay("serve.null_access", 0, ops, via(ctx, sys.pool)),
		ld.replay("netserve.null_access", 0, ops[:len(ops)/2], via(ctx, sys.clients[0])),
	)
	return ld.err
}

type noopApplier struct{}

func (noopApplier) ApplyEntry(int) {}

// componentRungs measures the three parts of an access that can run
// without a controller.
func (ld *ladder) componentRungs(level int, ops []ladderOp) error {
	cfg := config.Default()
	tree := oram.NewTree(level, cfg.Z)

	// cryptoeng.seal_path: one path's worth of payload seals.
	eng := cryptoeng.MustNew(oram.DefaultKey)
	src, dst := make([]byte, blockBytes), make([]byte, blockBytes)
	iv := uint64(0)
	sealPath := timed{name: "cryptoeng.seal_path", level: level, n: len(ops), f: func(int) {
		for s := 0; s < tree.PathBlocks(); s++ {
			iv++
			eng.SealInto(iv, src, dst)
		}
	}}

	// oram.path_io: fetch every slot down one path and open its header,
	// then seal a block into every slot and store it back.
	oc, err := oram.New(oram.Params{Levels: level, Z: cfg.Z, BlockBytes: blockBytes,
		StashEntries: 3 * tree.PathBlocks(), NumBlocks: ladderBlocks(level), Seed: ld.seed})
	if err != nil {
		return err
	}
	path := make([]uint64, 0, level+1)
	pathIO := timed{name: "oram.path_io", level: level, n: len(ops) / 2, f: func(i int) {
		path = tree.PathInto(path[:0], oc.PosMap.Lookup(oram.Addr(ops[i].addr)))
		for _, b := range path {
			for z := 0; z < tree.Z; z++ {
				s := oc.Image.Slot(b, z)
				a, l, v, err := oram.OpenSlotHeader(oc.Engine, s)
				if err != nil && ld.err == nil {
					ld.err = fmt.Errorf("oram.path_io: %w", err)
				}
				// Sealed in place over the slot just read: the header keeps
				// its content and nothing reads this image's payloads.
				oc.Image.PutSlot(b, z, oram.SealBlockInto(oc.Engine,
					oram.Block{Addr: a, Leaf: l, Ver: v, Data: src}, oc.NextIV, s.SealedHeader, s.SealedData))
			}
		}
	}}

	// mem.replay_path: the timing model alone, fed what one access feeds
	// it: a read per path slot, then one tagged batch holding a write per
	// path slot and one position-map entry.
	mc := mem.New(cfg)
	var now mem.Cycle
	mpath := make([]uint64, 0, level+1)
	replayPath := timed{name: "mem.replay_path", level: level, n: len(ops), f: func(i int) {
		mpath = tree.PathInto(mpath[:0], oram.Leaf(ops[i].addr%tree.Leaves()))
		done := now
		for _, b := range mpath {
			for z := 0; z < tree.Z; z++ {
				if d := mc.ReadBlock(mc.TreeBlockLocation(b, z), now); d > done {
					done = d
				}
			}
		}
		batch := mc.BeginBatch()
		batch.SetApplier(noopApplier{})
		tag := 0
		for _, b := range mpath {
			for z := 0; z < tree.Z; z++ {
				batch.AddDataTagged(mc.TreeBlockLocation(b, z), tag)
				tag++
			}
		}
		batch.AddPosMapTagged(mc.PosMapLocation(ops[i].addr), -1)
		d, err := batch.Commit(done)
		if err != nil && ld.err == nil {
			ld.err = fmt.Errorf("mem.replay_path: %w", err)
		}
		now = d
	}}
	ld.measure(sealPath, pathIO, replayPath)
	return ld.err
}

// filestoreRungs measures a durable Store with group commit 1 and 16.
// The store directories are inside the checkout, so this is the disk the
// checkout is on, not RAM. With k > 1 a write returns before it is
// durable and the barrier runs behind the next accesses; the steady
// state the stream reaches includes waiting for it.
func (ld *ladder) filestoreRungs(level int, ops []ladderOp) error {
	var rungs []timed
	for _, k := range []int{1, 16} {
		name := fmt.Sprintf("filestore.k%d_access", k)
		dir := filepath.Join(outDir, fmt.Sprintf("ladder-%d-k%d", os.Getpid(), k))
		defer os.RemoveAll(dir)
		st, err := psoram.New(ladderBlocks(level), psoram.WithLevels(level), psoram.WithRNGSeed(ld.seed),
			psoram.WithStorePath(dir), psoram.WithGroupCommit(k, 0))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defer st.Close()
		rungs = append(rungs, ld.replay(name, level, ops[:min(len(ops), 150*k)], storeAccessor(st)))
	}
	ld.measure(rungs...)
	return ld.err
}
