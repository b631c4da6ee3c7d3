// Package serve is the concurrent front-end the paper's controller lacks:
// a serving layer that shards the keyspace across a pool of independent
// crash-consistent stores and multiplexes concurrent clients into them.
//
// The concurrency model is shard-per-goroutine. Block addresses route
// deterministically to shards (shard = addr mod S), each shard owns one
// single-threaded backend controller, and exactly one worker goroutine
// drives it — so the controllers themselves never see concurrency, which
// is precisely the regime the §4 crash-consistency protocol was proved
// in. Clients submit requests into bounded per-shard queues; the worker
// takes what is queued as one protocol round (a batch) — yielding once
// before it parks on an empty queue, so the callers it just answered
// join the next round — executes the round back-to-back, serving
// duplicate reads in it from one physical access, and replies through
// per-request channels (Access) or per-request completion callbacks run
// on the replying goroutine (Go, the asynchronous form the network
// front-end submits through).
//
// Routing goes through an immutable, epoch-stamped table swapped
// atomically (copy-on-write): the stable fast path costs one atomic
// pointer load. Reshard replaces the table stripe by stripe, migrating
// the keyspace onto a freshly built shard set while unaffected stripes
// keep serving (see reshard.go and DESIGN.md §8).
//
// Overload never blocks a client: a full queue fails fast with
// ErrOverloaded. Cancellation is honoured at both ends: a client whose
// context dies while waiting stops waiting (the worker's reply is
// buffered, so it never blocks either), and a request whose context is
// already dead when the worker dequeues it is answered with the context
// error without touching the backend.
//
// Injected power failures surface as ErrInterrupted on the victim
// request; the worker immediately runs the scheme's recovery procedure
// (§4.3) and continues the round, so one crash never poisons a shard.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/storage/filestore"
)

// Typed serving-layer errors.
var (
	// ErrOverloaded reports a full shard queue. The request was not
	// enqueued; the caller may retry after backing off.
	ErrOverloaded = errors.New("serve: shard queue full")
	// ErrPoolClosed reports a submit after Close began.
	ErrPoolClosed = errors.New("serve: pool closed")
	// ErrInterrupted reports an access interrupted by a simulated power
	// failure. The shard has already recovered (§4.3); per the crash
	// contract the interrupted op either fully persisted or never
	// happened, so the caller may re-issue it.
	ErrInterrupted = errors.New("serve: access interrupted by simulated power failure (shard recovered)")
	// ErrResharding reports an access to a keyspace stripe that is being
	// migrated by an in-flight Reshard. The request touched no backend;
	// the stripe unfreezes within one migration step, so the caller may
	// retry after backing off (the network front-end maps this to a
	// RETRY_AFTER status frame).
	ErrResharding = errors.New("serve: keyspace stripe migrating; retry")
	// ErrReshardBusy reports a Reshard call while another is in flight.
	ErrReshardBusy = errors.New("serve: reshard already in progress")
)

// errRouteChanged is the internal retry signal: the routing table was
// swapped between route resolution and enqueue, so the request must be
// re-routed against the new table. Never escapes the package.
var errRouteChanged = errors.New("serve: routing table changed mid-submit")

// Retry is what a serving error lets the caller do next. It is the
// client contract (DESIGN.md §7), stated once: retrySubmit in this
// package and the load generator in internal/netserve both act on
// Classify and on nothing else.
type Retry uint8

const (
	// Stop covers nil, context errors and every error the contract does
	// not name: the caller reports it and does not re-issue the request.
	Stop Retry = iota
	// RetryNow is ErrInterrupted: the access never happened and the
	// shard has already recovered, so the same request may go again at
	// once.
	RetryNow
	// RetryAfterBackoff is ErrOverloaded and ErrResharding: the request
	// was refused before it touched a backend, and the condition clears
	// on its own (the queue drains, the stripe unfreezes), so the caller
	// waits before it re-issues.
	RetryAfterBackoff
)

// Classify maps a serving error, in-process or decoded from the wire
// (netserve.StatusError unwraps to the same sentinels), to its Retry.
func Classify(err error) Retry {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrResharding):
		return RetryAfterBackoff
	case errors.Is(err, ErrInterrupted):
		return RetryNow
	}
	return Stop
}

// Backend is one shard's underlying store: the oracle's uniform target
// shape plus the recovery hook. The adapters oracle.NewTarget builds
// satisfy it for every scheme.
type Backend interface {
	oracle.Target
	Recover() error
}

// staged is the optional backend facet exposing cumulative per-stage
// wall time (load / crypto / evict / seal / persist); the worker
// differences snapshots around each access to feed the stage
// histograms, and the sum of one access's differences is its service
// time (the core controllers implement it; the plain NonORAM store does
// not, and its service times record nothing).
type staged interface{ StageNanos() [core.NumStages]int64 }

// grouped is the optional backend facet for group-commit durability:
// accesses return before their mutations are durable, so the worker
// holds each successful access's reply on OnCommit (fired by the
// backend once the covering group persist barrier completes — possibly
// on the backend's persist worker, hence the buffered reply channels),
// flushes the open group when the queue idles past GroupCommitDelay,
// and drains it before exiting. SetCommitObserver feeds the group-size
// and persist-latency histograms.
type grouped interface {
	OnCommit(fn func(error))
	FlushCommits() error
	CommitPending() bool
	SetCommitObserver(fn func(ops int, persistNanos int64))
}

// Factory builds the backend for one shard. localBlocks is the number
// of logical blocks the shard owns after keyspace striping. A Factory
// is also used by Reshard to build the replacement shard set, so it
// must be callable more than once per pool.
type Factory func(shard int, localBlocks uint64) (Backend, error)

// Options sizes a Pool.
type Options struct {
	// Shards is the number of independent stores (default 4). For a
	// durable pool over a store directory that has been resharded, the
	// committed on-disk topology wins and this field is ignored.
	Shards int
	// NumBlocks is the total logical block count across the pool
	// (required). Block addr lives on shard addr%Shards as local block
	// addr/Shards.
	NumBlocks uint64
	// Scheme defaults to PSORAM.
	Scheme config.Scheme
	// Levels forces each shard's tree height (0 = derive from the
	// shard's block count).
	Levels int
	// Seed is the pool RNG root; each shard derives an independent
	// stream from it, so pools built from the same seed are replicas.
	Seed uint64
	// Cfg overrides the base configuration; nil means config.Default().
	Cfg *config.Config
	// QueueDepth bounds each shard's request queue (default 64). A full
	// queue rejects with ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many queued requests one protocol round
	// coalesces (default 8).
	MaxBatch int
	// StoreDir, when non-empty, backs every shard with a durable on-disk
	// store under StoreDir (create-or-recover; flat Path ORAM schemes
	// only). A fresh pool lays shards out as StoreDir/shard-NNN; after a
	// Reshard they live under an epoch directory committed by the
	// TOPOLOGY manifest (see internal/storage/filestore). Close then
	// persists and closes every shard's store after the drain. Ignored
	// when Factory is set.
	StoreDir string
	// Factory overrides backend construction (tests, custom schemes).
	// Nil means oracle.NewTarget with per-shard derived seeds.
	Factory Factory
	// Serial turns read-combining off: every request gets its own
	// physical access, the strict serial protocol byte for byte. The
	// zero value collapses duplicate-address reads within one coalesced
	// round into a single physical access (there is no lookahead: one
	// goroutine runs the shard, so a prefetch of the next path would
	// overlap with nothing).
	Serial bool
	// GroupCommitOps batches each durable shard's persist barrier across
	// up to this many accesses: replies are held until the covering
	// group flushes, so acks still imply durability, but the fsync floor
	// is paid once per group instead of once per access. <= 1 keeps the
	// per-access serial barrier (byte-identical on disk). Only effective
	// for durable backends (StoreDir, or a Factory whose backends
	// implement the group-commit facet).
	GroupCommitOps int
	// GroupCommitDelay bounds how long an idle shard may hold an open
	// commit group: when the worker's queue is empty and acks are
	// pending, the group is flushed after this long. 0 defaults to 2ms
	// when GroupCommitOps > 1.
	GroupCommitDelay time.Duration
}

func (o *Options) normalize() error {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.NumBlocks == 0 {
		return errors.New("serve: Options.NumBlocks is required")
	}
	if uint64(o.Shards) > o.NumBlocks {
		return fmt.Errorf("serve: %d shards need at least %d blocks, have %d", o.Shards, o.Shards, o.NumBlocks)
	}
	if !o.Scheme.Policy().ORAM && o.Factory == nil {
		o.Scheme = config.SchemePSORAM
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.GroupCommitOps > 1 && o.GroupCommitDelay <= 0 {
		o.GroupCommitDelay = 2 * time.Millisecond
	}
	return nil
}

// ShardOf is the routing function: the shard owning global block addr.
// It is pure arithmetic — the same address maps to the same shard in
// every pool with the same shard count, across restarts.
func ShardOf(addr uint64, shards int) int { return int(addr % uint64(shards)) }

// localAddr is addr's block index within its shard's keyspace stripe.
func localAddr(addr uint64, shards int) oram.Addr { return oram.Addr(addr / uint64(shards)) }

// localBlocks is how many of the n global blocks stripe onto shard s.
func localBlocks(n uint64, shards, s int) uint64 {
	return (n - uint64(s) + uint64(shards) - 1) / uint64(shards)
}

// stripeState is one old stripe's position in an in-flight reshard:
// still served by its old shard, frozen while its blocks move, or
// re-routed to the new shard set.
type stripeState uint8

const (
	stripeOld stripeState = iota
	stripeMigrating
	stripeNew
)

// routeTable is the pool's immutable routing state. Stable pools have
// next == nil and route addr to shards[addr%S]. During a reshard, next
// holds the replacement shard set and state tracks each old stripe
// (addr%oldS): OLD routes to the old shard, MIGRATING rejects with
// ErrResharding, NEW routes to the new set — with writes mirrored back
// to the old shard so an abort (or a crash before the topology commit)
// never loses an acknowledged write. Every transition installs a fresh
// table; a table, once published, is never mutated.
type routeTable struct {
	epoch  uint64
	shards []*shard      // serving set (stable), or the old set mid-reshard
	next   []*shard      // replacement set; nil when stable
	state  []stripeState // per old stripe; nil when stable
}

// route resolves addr: the shard to submit to, the shard-local address,
// and — for writes landing on an already-migrated stripe — the old
// shard to mirror the write into.
func (rt *routeTable) route(addr uint64) (primary *shard, local oram.Addr, mirror *shard, mirrorLocal oram.Addr, err error) {
	oldS := uint64(len(rt.shards))
	if rt.next == nil {
		return rt.shards[addr%oldS], oram.Addr(addr / oldS), nil, 0, nil
	}
	o := addr % oldS
	switch rt.state[o] {
	case stripeOld:
		return rt.shards[o], oram.Addr(addr / oldS), nil, 0, nil
	case stripeMigrating:
		return nil, 0, nil, 0, ErrResharding
	default: // stripeNew
		newS := uint64(len(rt.next))
		return rt.next[addr%newS], oram.Addr(addr / newS), rt.shards[o], oram.Addr(addr / oldS), nil
	}
}

// live returns every shard the table references (serving set plus the
// replacement set mid-reshard).
func (rt *routeTable) live() []*shard {
	if rt.next == nil {
		return rt.shards
	}
	all := make([]*shard, 0, len(rt.shards)+len(rt.next))
	all = append(all, rt.shards...)
	return append(all, rt.next...)
}

type response struct {
	value []byte
	leaf  oram.Leaf
	err   error
}

// request is a pooled submission envelope. The reply channel is
// allocated once per request object and buffered(1), so the worker
// never blocks on it; the object cycles through Pool.reqPool and is
// reused only after its reply has been received (an abandoned request —
// client context died first — is left to the GC, because its late
// reply would otherwise leak into the next user of the channel). A
// request submitted through Go carries done instead of a waiter: finish
// recycles the envelope and calls it on the replying goroutine. A
// request is either an access (op, addr, data) or, when fn is set, a
// closure run on the shard's worker goroutine, so it may touch the
// single-threaded backend (see run).
type request struct {
	op    oram.Op
	addr  oram.Addr // shard-local
	data  []byte
	fn    func(b Backend) error // the closure; nil = an access
	ctx   context.Context
	done  func(value []byte, err error) // Go's completion; nil = reply on the channel
	reply chan response
}

// shard is one keyspace stripe: a single-threaded backend plus the one
// goroutine allowed to touch it.
type shard struct {
	id      int
	blocks  uint64 // local block count (stats)
	backend Backend
	stages  staged  // nil when the backend has no stage clock
	grouped grouped // nil when group commit is off or unsupported
	queue   chan *request
	done    chan struct{} // closed when the worker exits (per-shard join)

	// Worker-owned pipelining scratch (no locks: one worker per shard).
	stageLast [core.NumStages]int64 // last StageNanos snapshot
	combine   []int                 // per-round: leader index for combinable reads, -1 = physical
	caps      []combineCap          // per-round leader value captures

	// closeMu serializes sends on queue against its close: submitters
	// hold the read side around the send, teardown (pool Close, or
	// Reshard retiring a shard set) holds the write side around
	// close(queue). closed is the queue's state, guarded by closeMu —
	// per-shard, because Reshard closes old shards while the pool as a
	// whole keeps serving.
	closeMu sync.RWMutex
	closed  bool

	// Counters are atomics (written by the worker and the submit path,
	// read by Stats), each padded to its own cache line so shards and
	// adjacent counters never false-share; the histograms are
	// worker-owned and guarded by mu.
	submitted  stats.PaddedUint64
	rejected   stats.PaddedUint64
	completed  stats.PaddedUint64
	expired    stats.PaddedUint64
	crashes    stats.PaddedUint64
	recoveries stats.PaddedUint64
	batches    stats.PaddedUint64
	combined   stats.PaddedUint64 // reads served from a round-mate's access
	flushes    stats.PaddedUint64 // group persist barriers run (group commit)

	mu        sync.Mutex
	serviceNs stats.Histogram                 // per-access wall ns inside the backend (sum of the stages)
	batch     stats.Histogram                 // requests coalesced per protocol round
	stageHist [core.NumStages]stats.Histogram // per-access wall ns per protocol stage
	groupHist stats.Histogram                 // accesses covered per group persist barrier
	persistNs stats.Histogram                 // wall ns per group barrier, flush → durable
}

// combineCap captures one physical access's outcome for round-mates that
// combine with it: the post-access value (read result, or the data just
// written) and the leaf of the physical round. The value buffer is
// capture-owned and reused across rounds.
type combineCap struct {
	want  bool // some later read in this round combines with this access
	ok    bool // the access succeeded and value/leaf are valid
	leaf  oram.Leaf
	value []byte
}

// Pool is the concurrent serving layer: S shards, S workers, bounded
// queues in front. All methods are safe for concurrent use.
type Pool struct {
	opts   Options
	router atomic.Pointer[routeTable]

	closed  atomic.Bool // submits re-check under the shard's closeMu
	reqPool sync.Pool   // *request envelopes with their reply channels

	// reshardMu serializes Reshard against itself and against Close.
	// Invariant: whenever it is free, the published table is stable
	// (next == nil).
	reshardMu sync.Mutex
	storeRoot string // durable pool root; "" for in-memory or Factory pools

	// The shards' shape, read once: a backend belongs to its worker, whose
	// Recover may rebuild it while a front-end asks for the shape.
	blockBytes int
	scheme     config.Scheme
}

// New builds and starts a pool. The returned Pool is serving; callers
// own shutting it down with Close. Over a store directory that holds a
// committed reshard topology, the on-disk shard count and epoch are
// adopted (the TOPOLOGY manifest is authoritative — the pool may have
// been resharded since the flags were written down).
func New(opts Options) (*Pool, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	epoch := uint64(0)
	p := &Pool{opts: opts}
	if opts.StoreDir != "" && opts.Factory == nil {
		topo, err := filestore.ReadTopology(opts.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if topo != nil {
			opts.Shards = topo.Shards
			epoch = topo.Epoch
			if uint64(opts.Shards) > opts.NumBlocks {
				return nil, fmt.Errorf("serve: committed topology has %d shards, need at least %d blocks, have %d",
					opts.Shards, opts.Shards, opts.NumBlocks)
			}
			p.opts.Shards = opts.Shards
		}
		if err := filestore.CleanStale(opts.StoreDir, topo); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		p.storeRoot = opts.StoreDir
	}
	p.reqPool.New = func() any { return &request{reply: make(chan response, 1)} }
	shards := make([]*shard, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		dir := ""
		if p.storeRoot != "" {
			dir = filestore.ShardDir(p.storeRoot, epoch, s)
		}
		b, err := p.buildBackend(s, localBlocks(opts.NumBlocks, opts.Shards, s), dir)
		if err != nil {
			// The shards already built have running workers and open
			// backends; stop and close them.
			p.retire(shards[:s])
			return nil, fmt.Errorf("serve: shard %d: %w", s, err)
		}
		shards[s] = p.newShard(s, b)
	}
	p.router.Store(&routeTable{epoch: epoch, shards: shards})
	p.blockBytes, p.scheme = shards[0].backend.BlockBytes(), shards[0].backend.Scheme()
	return p, nil
}

// buildBackend constructs one shard's backend: the Options.Factory when
// set, otherwise oracle.NewTarget with a per-shard derived seed and the
// given durable directory ("" = in-memory). Reshard calls it again for
// the replacement shard set.
func (p *Pool) buildBackend(s int, local uint64, dir string) (Backend, error) {
	if p.opts.Factory != nil {
		return p.opts.Factory(s, local)
	}
	t, err := oracle.NewTarget(oracle.Params{
		Scheme:           p.opts.Scheme,
		NumBlocks:        local,
		Levels:           p.opts.Levels,
		Seed:             rng.DeriveSeed(p.opts.Seed, 0x5e4e, uint64(s)),
		Cfg:              p.opts.Cfg,
		StoreDir:         dir,
		GroupCommitOps:   p.opts.GroupCommitOps,
		GroupCommitDelay: p.opts.GroupCommitDelay,
	})
	if err != nil {
		return nil, err
	}
	b, ok := t.(Backend)
	if !ok {
		return nil, fmt.Errorf("serve: %v target does not support recovery", p.opts.Scheme)
	}
	return b, nil
}

// newShard wraps a backend in a shard and starts its worker.
func (p *Pool) newShard(id int, b Backend) *shard {
	sh := &shard{
		id:      id,
		blocks:  b.NumBlocks(),
		backend: b,
		queue:   make(chan *request, p.opts.QueueDepth),
		done:    make(chan struct{}),
	}
	sh.stages, _ = b.(staged)
	if p.opts.GroupCommitOps > 1 {
		sh.grouped, _ = b.(grouped)
		if sh.grouped != nil {
			// The observer runs on the backend's persist worker;
			// histograms are mu-guarded, so a third writer is fine.
			sh.grouped.SetCommitObserver(func(ops int, persistNanos int64) {
				sh.flushes.Add(1)
				sh.mu.Lock()
				sh.groupHist.Observe(uint64(ops))
				sh.persistNs.Observe(uint64(persistNanos))
				sh.mu.Unlock()
			})
		}
	}
	sh.combine = make([]int, 0, p.opts.MaxBatch)
	sh.caps = make([]combineCap, p.opts.MaxBatch)
	go p.work(sh)
	return sh
}

// work is a shard's worker loop: take one request, coalesce up to
// MaxBatch-1 more that are already queued, and run them as one protocol
// round. Unless Options.Serial is set the round is planned before execution:
// duplicate-address reads combine with the latest preceding access to
// their address (one physical round, value fanned out).
//
// Rounds form on purpose: when the queue is empty the worker yields once
// before it parks. The callers the round just answered are runnable by
// then, so they submit before the worker looks again and share the next
// round; a caller that arrives later wakes the worker through the
// channel, the yield already spent. One yield, no timer, no
// threshold, and never a look at an address (DESIGN.md §7 "Worker
// rounds"). Under group commit, an idle queue with held acks flushes the
// open group after GroupCommitDelay. Exits when the queue is closed and
// drained — flushing any open group on the way out, so every request
// accepted before Close is answered.
func (p *Pool) work(sh *shard) {
	defer close(sh.done)
	batch := make([]*request, 0, p.opts.MaxBatch)
	combining := !p.opts.Serial
	var idle *time.Timer // bounds held acks' wait; one per worker, re-armed
	for {
		var first *request
		var ok bool
		select {
		case first, ok = <-sh.queue:
		default:
			runtime.Gosched()
			if sh.grouped != nil && sh.grouped.CommitPending() {
				// Acks are held on an open commit group and no request is
				// ready: bound their wait. The flush error (if any) reaches
				// the held replies through their tickets.
				if idle == nil {
					idle = time.NewTimer(p.opts.GroupCommitDelay)
				} else {
					idle.Reset(p.opts.GroupCommitDelay)
				}
				select {
				case first, ok = <-sh.queue:
					if !idle.Stop() {
						<-idle.C // fired meanwhile: drained for the next Reset
					}
				case <-idle.C:
					sh.grouped.FlushCommits()
					continue
				}
			} else {
				first, ok = <-sh.queue
			}
		}
		if !ok {
			break
		}
		batch = append(batch[:0], first)
	coalesce:
		for len(batch) < p.opts.MaxBatch {
			select {
			case r, ok := <-sh.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, r)
			default:
				break coalesce
			}
		}
		sh.batches.Add(1)
		occ := uint64(len(batch))
		sh.planCombines(batch, combining)
		for i, r := range batch {
			var cc *combineCap
			if combining {
				if j := sh.combine[i]; j >= 0 && sh.caps[j].ok &&
					(r.ctx == nil || r.ctx.Err() == nil) {
					// Read-combining fast path: a round-mate already ran
					// the physical access for this address; fan its value
					// out without another round.
					c := &sh.caps[j]
					sh.combined.Add(1)
					sh.completed.Add(1)
					resp := response{value: append([]byte(nil), c.value...), leaf: c.leaf}
					p.deliver(sh, r, resp)
					continue
				}
				if sh.caps[i].want {
					cc = &sh.caps[i]
				}
			}
			p.execute(sh, r, cc)
		}
		sh.mu.Lock()
		sh.batch.Observe(occ)
		sh.mu.Unlock()
	}
	if sh.grouped != nil {
		// Queue closed and drained: flush the open group so every held
		// reply resolves before the shard reports done.
		sh.grouped.FlushCommits()
	}
}

// finish answers r, exactly once per request: a Go request's envelope
// is recycled and its completion runs here, on the replying goroutine
// (the shard worker, or the backend's persist worker for a reply held
// on a commit ticket); an Access request's reply goes to its channel,
// which is buffered(1), so the send never blocks either.
func (p *Pool) finish(r *request, resp response) {
	if r.done == nil {
		r.reply <- resp
		return
	}
	done := r.done
	p.putRequest(r)
	done(resp.value, resp.err)
}

// deliver finishes a successful access — immediately, or held on the
// covering commit group's ticket under group commit, so the ack is only
// observable once the access is durable. A barrier failure replaces the
// held reply with the error.
func (p *Pool) deliver(sh *shard, r *request, resp response) {
	if sh.grouped == nil {
		p.finish(r, resp)
		return
	}
	sh.grouped.OnCommit(func(perr error) {
		if perr != nil {
			p.finish(r, response{err: fmt.Errorf("serve: shard %d: %w", sh.id, perr)})
			return
		}
		p.finish(r, resp)
	})
}

// planCombines marks, for each read in the round, the latest preceding
// access (read or write) to the same address: the read can be served
// from that access's captured outcome without a physical round of its
// own. Chains resolve to the physical leader, and writes are never
// combined away — they serialize in arrival order, so a combined read
// always observes the newest preceding write in the round.
func (sh *shard) planCombines(batch []*request, combining bool) {
	sh.combine = sh.combine[:0]
	for range batch {
		sh.combine = append(sh.combine, -1)
	}
	for i := range sh.caps {
		sh.caps[i].want, sh.caps[i].ok = false, false
	}
	if !combining || len(batch) < 2 {
		return
	}
	for i, r := range batch {
		if r.fn != nil || r.op != oram.OpRead {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			rj := batch[j]
			if rj.fn == nil && rj.addr == r.addr {
				lead := j
				if sh.combine[lead] >= 0 {
					lead = sh.combine[lead] // j itself combines; share its leader
				}
				sh.combine[i] = lead
				sh.caps[lead].want = true
				break
			}
		}
	}
}

// execute runs one request on the shard's backend and replies. Crash
// errors trigger immediate recovery so the round (and the shard) keeps
// serving. When cc is non-nil a later read in this round combines with
// this access: on success the post-access value and leaf are captured
// into cc before the reply is sent (the client may mutate its buffers
// the moment the reply lands).
func (p *Pool) execute(sh *shard, r *request, cc *combineCap) {
	// A request whose deadline passed while queued is answered without
	// spending a protocol access on it.
	if r.ctx != nil && r.ctx.Err() != nil {
		sh.expired.Add(1)
		p.finish(r, response{err: r.ctx.Err()})
		return
	}
	var resp response
	if r.fn != nil {
		resp.err = r.fn(sh.backend)
	} else {
		v, leaf, err := sh.backend.Access(r.op, r.addr, r.data)
		if errors.Is(err, core.ErrCrashed) {
			sh.crashes.Add(1)
			if rerr := sh.backend.Recover(); rerr != nil {
				resp.err = fmt.Errorf("serve: shard %d recovery failed: %w", sh.id, rerr)
			} else {
				sh.recoveries.Add(1)
				resp.err = ErrInterrupted
			}
		} else if err != nil {
			resp.err = fmt.Errorf("serve: shard %d: %w", sh.id, err)
		} else {
			// The backend's value may alias its internal buffer, valid
			// only until its next access; ownership transfers to the
			// client here, so this is the data path's one copy.
			resp.value, resp.leaf = append([]byte(nil), v...), leaf
			if cc != nil {
				post := v
				if r.op == oram.OpWrite {
					post = r.data
				}
				cc.value = append(cc.value[:0], post...)
				cc.leaf = leaf
				cc.ok = true
			}
			if sh.stages != nil {
				now := sh.stages.StageNanos()
				var service int64
				sh.mu.Lock()
				for k := range now {
					if d := now[k] - sh.stageLast[k]; d > 0 {
						sh.stageHist[k].Observe(uint64(d))
						service += d
					}
					sh.stageLast[k] = now[k]
				}
				sh.serviceNs.Observe(uint64(service))
				sh.mu.Unlock()
			}
		}
	}
	if resp.err == nil || errors.Is(resp.err, ErrInterrupted) {
		sh.completed.Add(1)
	}
	if r.fn == nil && resp.err == nil {
		// Successful accesses are the only replies that imply the
		// mutation is durable; under group commit they are held on their
		// commit ticket. Errors (including ErrInterrupted — the access
		// never happened) and closures reply immediately.
		p.deliver(sh, r, resp)
		return
	}
	p.finish(r, resp)
}

// getRequest takes a request envelope from the pool; putRequest resets
// it (keeping its reply channel) and returns it. Only requests whose
// reply has been received — or that were never enqueued, or that carry
// a completion and so never use the channel — may be put back; the
// channel must be empty on reuse.
func (p *Pool) getRequest() *request {
	return p.reqPool.Get().(*request)
}

func (p *Pool) putRequest(r *request) {
	reply := r.reply
	*r = request{reply: reply}
	p.reqPool.Put(r)
}

// enqueue is the admission half of every submission: it puts r on shard
// sh's queue without ever blocking on a full one. On any error r was
// not enqueued and has been recycled; on nil r belongs to the worker
// until it is answered.
//
// When rt is non-nil, the routing table is revalidated under the
// shard's closeMu read lock: if it changed since the caller resolved
// the route, enqueue backs out with errRouteChanged and the caller
// re-routes. This is the reshard freeze handshake — a stripe
// transition swaps the table and then takes the old shard's closeMu
// write lock as a barrier, so every enqueue that slipped past the old
// table has landed (and will drain) before migration reads the shard.
func (p *Pool) enqueue(ctx context.Context, sh *shard, r *request, rt *routeTable) error {
	r.ctx = ctx
	sh.closeMu.RLock()
	var err error
	switch {
	case p.closed.Load():
		err = ErrPoolClosed
	case sh.closed:
		// The shard's queue is gone (its set was retired by a completed
		// or aborted reshard); the current table routes elsewhere.
		err = errRouteChanged
	case rt != nil && p.router.Load() != rt:
		err = errRouteChanged
	default:
		select {
		case sh.queue <- r:
			sh.submitted.Add(1)
		default:
			sh.rejected.Add(1)
			err = ErrOverloaded
		}
	}
	sh.closeMu.RUnlock()
	if err != nil {
		p.putRequest(r)
	}
	return err
}

// submit enqueues r on shard sh and waits for its reply. It consumes r:
// the envelope is recycled (or, on abandonment, leaked to the GC)
// before submit returns, so the caller must not touch it again.
func (p *Pool) submit(ctx context.Context, sh *shard, r *request, rt *routeTable) (response, error) {
	if err := p.enqueue(ctx, sh, r, rt); err != nil {
		return response{}, err
	}
	if ctx == nil || ctx.Done() == nil {
		resp := <-r.reply
		p.putRequest(r)
		return resp, resp.err
	}
	select {
	case resp := <-r.reply:
		p.putRequest(r)
		return resp, resp.err
	case <-ctx.Done():
		// The worker will still execute (or expire) the request and its
		// reply lands in the buffered channel; the client just stops
		// waiting. The envelope is NOT recycled — the late reply sitting
		// in its channel would surface as the next user's answer.
		return response{}, ctx.Err()
	}
}

// Go is Access without the wait: it validates, routes and enqueues the
// request exactly as Access does and returns; done is called exactly
// once with what Access would have returned (less the leaf). A request
// that cannot be enqueued — out-of-range address, ErrOverloaded,
// ErrPoolClosed, ErrResharding — completes inline, before Go returns.
// An enqueued one completes on the replying goroutine: the shard's
// worker, or the backend's persist worker when the reply is held on a
// group-commit ticket. done therefore must not block and must not call
// back into the pool's waiting methods; data must stay untouched until
// it runs. ctx is consulted when the worker dequeues the request (a
// dead context is answered with its error, no access spent); nobody
// waits on it in between.
//
// While a reshard is migrating, writes may need mirroring into the old
// shard set and retrying across table swaps; that bookkeeping lives in
// Access, so Go runs Access on a goroutine for the duration.
func (p *Pool) Go(ctx context.Context, op oram.Op, addr uint64, data []byte, done func(value []byte, err error)) {
	if addr >= p.opts.NumBlocks {
		done(nil, fmt.Errorf("serve: access to addr %d outside [0,%d)", addr, p.opts.NumBlocks))
		return
	}
	for {
		rt := p.router.Load()
		sh, local, _, _, rerr := rt.route(addr)
		if rerr != nil {
			done(nil, rerr)
			return
		}
		if rt.next != nil {
			go func() {
				v, _, err := p.Access(ctx, op, addr, data)
				done(v, err)
			}()
			return
		}
		r := p.getRequest()
		r.op, r.addr, r.data, r.done = op, local, data, done
		err := p.enqueue(ctx, sh, r, rt)
		if err == errRouteChanged {
			continue
		}
		if err != nil {
			done(nil, err)
		}
		return
	}
}

// Access performs one oblivious access on the shard owning addr and
// returns the value read (for writes: the previous value) plus the leaf
// whose path was read, mirroring the oracle target contract. During a
// reshard, writes landing on an already-migrated stripe are mirrored
// into the stripe's old shard before the access is acknowledged, so an
// acknowledged write survives both reshard outcomes (commit and abort —
// or, for durable pools, a crash recovered on either topology).
func (p *Pool) Access(ctx context.Context, op oram.Op, addr uint64, data []byte) ([]byte, oram.Leaf, error) {
	if addr >= p.opts.NumBlocks {
		return nil, 0, fmt.Errorf("serve: access to addr %d outside [0,%d)", addr, p.opts.NumBlocks)
	}
	// first remembers the initial acked primary execution across
	// mirror-driven retries: a retry re-runs the (idempotent) write so
	// the data provably lands on whatever table is now authoritative,
	// but the linearized previous value is the one the FIRST execution
	// observed — the re-run would see the write's own data.
	var first *response
	for {
		rt := p.router.Load()
		sh, local, mirror, mirrorLocal, rerr := rt.route(addr)
		if rerr != nil {
			return nil, 0, rerr
		}
		r := p.getRequest()
		r.op, r.addr, r.data = op, local, data
		resp, err := p.submit(ctx, sh, r, rt)
		if err == errRouteChanged {
			continue
		}
		if err != nil || mirror == nil || op != oram.OpWrite {
			if first != nil && err == nil {
				resp = *first
			}
			return resp.value, resp.leaf, err
		}
		if first == nil {
			cp := resp
			first = &cp
		}
		if merr := p.retrySubmit(ctx, mirror, rt, writeRequest(mirrorLocal, data)); merr != nil {
			if merr == errRouteChanged {
				// The table moved between the primary and the mirror
				// (reshard committed, aborted, or advanced a stripe).
				// Re-run the whole write against the new table.
				continue
			}
			return nil, 0, merr
		}
		return first.value, first.leaf, nil
	}
}

// retrySubmit submits one request to shard sh, re-issuing it as Classify
// allows (a fresh envelope each time; fill sets its operands or closure).
// The pool's internal duties run through it — mirroring an acked write
// into a stripe's old shard, extracting a frozen stripe, replaying a
// migrated block — because a full queue or an injected-crash recovery
// must not fail an operation whose client-visible half already landed;
// every write it carries is an idempotent overwrite. errRouteChanged
// (with rt non-nil: the caller re-routes) and hard errors escape.
func (p *Pool) retrySubmit(ctx context.Context, sh *shard, rt *routeTable, fill func(*request)) error {
	for {
		r := p.getRequest()
		fill(r)
		_, err := p.submit(ctx, sh, r, rt)
		switch Classify(err) {
		case RetryNow:
		case RetryAfterBackoff:
			select {
			case <-time.After(50 * time.Microsecond):
			case <-ctxDone(ctx):
				return ctx.Err()
			}
		default:
			return err
		}
	}
}

// run submits fn as a closure request to shard sh and waits for its
// result; rt is submit's table check (nil = none). fn runs on the shard's
// worker goroutine, after what is already queued, and only if ctx is
// still live when the worker dequeues it. Whatever fn stores may be read
// only when run returns nil: on a context error the caller stopped
// waiting, and fn may run later or never.
func (p *Pool) run(ctx context.Context, sh *shard, rt *routeTable, fn func(Backend) error) error {
	r := p.getRequest()
	r.fn = fn
	_, err := p.submit(ctx, sh, r, rt)
	return err
}

// writeRequest fills an envelope with a shard-local write.
func writeRequest(addr oram.Addr, data []byte) func(*request) {
	return func(r *request) {
		r.op, r.addr, r.data = oram.OpWrite, addr, data
	}
}

// ctxDone tolerates the package's nil-context convention (nil = no
// deadline, never cancelled).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Read performs one oblivious read.
func (p *Pool) Read(ctx context.Context, addr uint64) ([]byte, error) {
	v, _, err := p.Access(ctx, oram.OpRead, addr, nil)
	return v, err
}

// Write performs one oblivious write; data must be BlockBytes long.
func (p *Pool) Write(ctx context.Context, addr uint64, data []byte) error {
	_, _, err := p.Access(ctx, oram.OpWrite, addr, data)
	return err
}

// Peek reads addr without a protocol access (test/debug oracle path).
func (p *Pool) Peek(ctx context.Context, addr uint64) ([]byte, error) {
	if addr >= p.opts.NumBlocks {
		return nil, fmt.Errorf("serve: peek at addr %d outside [0,%d)", addr, p.opts.NumBlocks)
	}
	for {
		rt := p.router.Load()
		sh, local, _, _, rerr := rt.route(addr)
		if rerr != nil {
			return nil, rerr
		}
		var v []byte
		err := p.run(ctx, sh, rt, func(b Backend) (err error) {
			v, err = b.Peek(local)
			return err
		})
		if err == errRouteChanged {
			continue
		}
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// Invariants runs every shard's structural invariant checks through the
// shards' own queues (so they serialize against in-flight rounds) and
// returns all violations found, prefixed with the shard id. During a
// reshard both shard sets are checked.
func (p *Pool) Invariants(ctx context.Context) []error {
	var out []error
	for _, sh := range p.router.Load().live() {
		var errs []error
		err := p.run(ctx, sh, nil, func(b Backend) error {
			errs = b.Invariants()
			return nil
		})
		if err == errRouteChanged {
			continue // the shard was retired mid-call; its set is gone
		}
		if err != nil {
			out = append(out, fmt.Errorf("serve: shard %d invariants: %w", sh.id, err))
			continue
		}
		for _, e := range errs {
			out = append(out, fmt.Errorf("serve: shard %d: %w", sh.id, e))
		}
	}
	return out
}

// ArmCrash installs a crash injector on one shard of the current
// serving set, serialized through its queue like any other request:
// fire is called at each protocol crash point and returning true
// simulates the power failure there. Pass nil to disarm. Like every
// request, it is dropped if ctx is dead when the shard dequeues it.
func (p *Pool) ArmCrash(ctx context.Context, shard int, fire func(core.CrashPoint) bool) error {
	for {
		rt := p.router.Load()
		if shard < 0 || shard >= len(rt.shards) {
			return fmt.Errorf("serve: no shard %d (have %d)", shard, len(rt.shards))
		}
		err := p.run(ctx, rt.shards[shard], rt, func(b Backend) error {
			c, ok := b.(interface {
				Arm(func(core.CrashPoint) bool)
			})
			if !ok {
				return fmt.Errorf("serve: shard %d backend does not support crash injection", shard)
			}
			c.Arm(fire)
			return nil
		})
		if err == errRouteChanged {
			continue
		}
		return err
	}
}

// NumBlocks returns the pool's total logical block count.
func (p *Pool) NumBlocks() uint64 { return p.opts.NumBlocks }

// Closed reports whether Close has begun: the drain hook for front-ends
// that must stop admitting work (and advertise "closing" to clients)
// before the pool stops answering.
func (p *Pool) Closed() bool { return p.closed.Load() }

// BlockBytes returns the block payload size in bytes.
func (p *Pool) BlockBytes() int { return p.blockBytes }

// Shards returns the current serving shard count (the old set's, while
// a reshard is migrating).
func (p *Pool) Shards() int { return len(p.router.Load().shards) }

// Epoch returns the routing epoch: 0 for a pool that has never been
// resharded, incremented by each committed Reshard. For durable pools
// the epoch is committed in the store's TOPOLOGY manifest.
func (p *Pool) Epoch() uint64 { return p.router.Load().epoch }

// Resharding reports whether a Reshard is migrating stripes right now.
func (p *Pool) Resharding() bool { return p.router.Load().next != nil }

// Scheme returns the persistence protocol the shards run.
func (p *Pool) Scheme() config.Scheme { return p.scheme }

// Close drains the pool: no new submits are accepted, every already
// queued request is executed (crashed rounds recover via §4.3 on the
// way out), the workers exit, and any backend implementing io.Closer is
// closed (that frees a core shard's images, and for file-backed shards
// runs the final persist barrier first).
// An in-flight Reshard is aborted (it observes closed at its next
// stripe boundary and reverts) before the drain begins. The context
// bounds the drain; on expiry the workers keep draining — and the
// backends still get closed — in the background, but Close returns the
// context error.
func (p *Pool) Close(ctx context.Context) error {
	if !p.closed.CompareAndSwap(false, true) {
		return ErrPoolClosed
	}
	// Wait out any in-flight Reshard: it checks closed at every stripe
	// boundary and aborts, releasing reshardMu with a stable table.
	p.reshardMu.Lock()
	defer p.reshardMu.Unlock()
	shards := p.router.Load().live()
	done := make(chan error, 1)
	go func() { done <- p.retire(shards) }()
	if ctx == nil {
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
