// Package psoram is a from-scratch reproduction of PS-ORAM (Liu, Li,
// Xiao, Wang — ISCA 2022): a Path ORAM controller with efficient crash
// consistency support for NVM main memory.
//
// The package exposes three layers:
//
//   - Store: a functional, value-accurate, crash-consistent oblivious
//     block store. Reads and writes run the full PS-ORAM protocol over
//     AES-CTR sealed blocks; simulated power failures and recovery let
//     applications (and tests) exercise the crash-consistency guarantees
//     end to end.
//
//   - Simulate: the full-system timing model (in-order core, Table 3
//     caches, banked multi-channel NVM) that prices every protocol
//     variant the paper evaluates and regenerates its figures.
//
//   - Experiments: runners for each table and figure of the paper
//     (Figure5a/5b/6a/6b/7, Table1/2, the crash matrix, the ORAM-cost
//     study), returning paper-style text tables.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// versus published results.
package psoram

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/netserve"
	"repro/internal/oram"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scheme selects a persistence protocol. The zero value is NonORAM.
type Scheme = config.Scheme

// The evaluated schemes (§5.1 of the paper).
const (
	NonORAM     = config.SchemeNonORAM
	Baseline    = config.SchemeBaseline
	FullNVM     = config.SchemeFullNVM
	FullNVMSTT  = config.SchemeFullNVMSTT
	NaivePSORAM = config.SchemeNaivePSORAM
	PSORAM      = config.SchemePSORAM
	RcrBaseline = config.SchemeRcrBaseline
	RcrPSORAM   = config.SchemeRcrPSORAM
	EADRORAM    = config.SchemeEADRORAM
)

// Config is the full experimental configuration (Table 3).
type Config = config.Config

// DefaultConfig returns the paper's Table 3 configuration.
func DefaultConfig() Config { return config.Default() }

// Schemes lists every evaluated scheme.
func Schemes() []Scheme { return config.Schemes() }

// ErrCrashed is returned by Store operations interrupted by an injected
// power failure; call Recover before further use.
var ErrCrashed = core.ErrCrashed

// CrashPoint identifies a protocol point for crash injection (see
// Store.CrashAt).
type CrashPoint = core.CrashPoint

// Store is a crash-consistent oblivious block store: the paper's ORAM
// controller exposed as a library. All methods are single-threaded by
// design — the hardware it models is one memory controller. For
// concurrent clients, front a pool of Stores with NewPool.
type Store struct {
	ctl *core.Controller
}

// storeConfig collects what the functional options set before the
// controller is built.
type storeConfig struct {
	scheme   Scheme
	cfg      Config
	levels   int
	crashAt  func(CrashPoint) bool
	storeDir string
	group    core.GroupCommit
}

// StoreOption customizes New.
type StoreOption func(*storeConfig)

// WithScheme selects the persistence protocol (default PSORAM).
func WithScheme(s Scheme) StoreOption {
	return func(c *storeConfig) { c.scheme = s }
}

// WithConfig replaces the default Table 3 configuration.
func WithConfig(cfg Config) StoreOption {
	return func(c *storeConfig) { c.cfg = cfg }
}

// WithLevels forces the ORAM tree height instead of deriving it from the
// block count.
func WithLevels(levels int) StoreOption {
	return func(c *storeConfig) { c.levels = levels }
}

// WithRNGSeed seeds the store's path-remap and encryption RNG,
// overriding Config.Seed.
func WithRNGSeed(seed uint64) StoreOption {
	return func(c *storeConfig) { c.cfg.Seed = seed }
}

// WithCrashInjector arms a crash injector at construction (see
// Store.CrashAt): the first protocol point for which f returns true
// simulates a power failure.
func WithCrashInjector(f func(CrashPoint) bool) StoreOption {
	return func(c *storeConfig) { c.crashAt = f }
}

// WithStorePath backs the store with a durable on-disk store at dir
// (create-or-recover: an empty dir gets a fresh store, a dir holding a
// committed store is recovered and its scheme/size must match the
// request). Flat Path ORAM schemes only. Close the Store when done —
// Close runs the final persist barrier.
func WithStorePath(dir string) StoreOption {
	return func(c *storeConfig) { c.storeDir = dir }
}

// WithGroupCommit batches the durable persist barrier across up to n
// accesses (PS-ORAM §4.3 runs one ordered commit point per access; the
// fsync floor under that barrier dominates file-backed stores). Under
// group commit, Write and Read return before the mutation is durable —
// call FlushCommits to force the open group down, or serve the store
// through a Pool, whose acks already wait for durability. n <= 1 keeps
// the per-access serial barrier, byte-identical to the default. d
// bounds how long a pool shard may hold an open group while idle
// (ignored on a lone Store, which has no scheduler to run the timer; 0
// lets the pool pick a small default). Crash-wise the guarantee is
// unchanged in kind: recovery lands on a group boundary, so at most the
// last unflushed (unacked) group of accesses is lost, never a torn
// prefix.
func WithGroupCommit(n int, d time.Duration) StoreOption {
	return func(c *storeConfig) { c.group = core.GroupCommit{MaxOps: n, MaxDelay: d} }
}

// New builds a store holding numBlocks zero-initialized blocks,
// customized by functional options:
//
//	st, err := psoram.New(1024, psoram.WithScheme(psoram.PSORAM), psoram.WithRNGSeed(42))
func New(numBlocks uint64, opts ...StoreOption) (*Store, error) {
	if numBlocks == 0 {
		return nil, errors.New("psoram: numBlocks is required")
	}
	sc := storeConfig{scheme: PSORAM, cfg: config.Default()}
	for _, o := range opts {
		o(&sc)
	}
	if sc.scheme == NonORAM {
		sc.scheme = PSORAM
	}
	// A Store serves values; simulated time is Simulate's business, so the
	// controller runs over the untimed memory model.
	copts := core.Options{NumBlocks: numBlocks, Levels: sc.levels, GroupCommit: sc.group, Untimed: true}
	var ctl *core.Controller
	var err error
	if sc.storeDir != "" {
		ctl, _, err = core.NewDurable(sc.scheme, sc.cfg, copts, sc.storeDir)
	} else {
		ctl, err = core.New(sc.scheme, sc.cfg, copts)
	}
	if err != nil {
		return nil, err
	}
	ctl.CrashAt = sc.crashAt
	return &Store{ctl: ctl}, nil
}

// BlockSize returns the block payload size in bytes.
func (s *Store) BlockSize() int { return s.ctl.Cfg.BlockBytes }

// NumBlocks returns the logical block count.
func (s *Store) NumBlocks() uint64 { return s.ctl.ORAM.NumBlocks() }

// Scheme returns the persistence protocol in use.
func (s *Store) Scheme() Scheme { return s.ctl.Scheme }

// Read performs one oblivious access and returns the block's value.
// The returned slice is the caller's to keep (the controller's internal
// buffer is copied out).
func (s *Store) Read(addr uint64) ([]byte, error) {
	res, err := s.ctl.Access(oram.OpRead, oram.Addr(addr), nil)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), res.Value...), nil
}

// Write performs one oblivious access replacing the block's value; data
// must be exactly BlockSize bytes. Under WithGroupCommit(n>1, …) the
// write returns before it is durable — FlushCommits (or Close) runs the
// covering barrier.
func (s *Store) Write(addr uint64, data []byte) error {
	_, err := s.ctl.Access(oram.OpWrite, oram.Addr(addr), data)
	return err
}

// CrashAt arms a crash injector: the next time execution reaches a
// protocol point for which f returns true, a power failure is simulated
// and the in-flight operation returns ErrCrashed. Pass nil to disarm.
func (s *Store) CrashAt(f func(CrashPoint) bool) { s.ctl.CrashAt = f }

// CrashNow simulates a power failure between accesses.
func (s *Store) CrashNow() error {
	prev := s.ctl.CrashAt
	s.ctl.CrashAt = func(CrashPoint) bool { return true }
	defer func() { s.ctl.CrashAt = prev }()
	// Fire the injector through a benign access boundary: the controller
	// exposes crash points only inside accesses, so run a read that will
	// be interrupted at its first point.
	_, err := s.ctl.Access(oram.OpRead, 0, nil)
	if err == core.ErrCrashed {
		return nil
	}
	if err != nil {
		return err
	}
	return errors.New("psoram: crash injector did not fire")
}

// FlushCommits forces the open group-commit group down to the durable
// backend (see WithGroupCommit). It returns when the barrier has been
// started — with a file-backed store the fsync runs on a background
// worker, and the next FlushCommits, access, or Close observes its
// outcome. A no-op when group commit is off, no group is open, or the
// store is in-memory.
func (s *Store) FlushCommits() error { return s.ctl.FlushCommits() }

// Recover runs the post-restart recovery procedure (§4.3).
func (s *Store) Recover() error { return s.ctl.Recover() }

// Close persists any remaining durable state, releases the storage
// backend, and frees the store's tree images, in memory or not. The
// store's operations return an error afterwards; a second Close is a
// no-op.
func (s *Store) Close() error { return s.ctl.Close() }

// Accesses returns the number of completed ORAM accesses.
func (s *Store) Accesses() uint64 { return s.ctl.Accesses() }

// Counters returns a copy of the controller and memory metrics.
func (s *Store) Counters() map[string]int64 {
	out := s.ctl.Counters().Snapshot()
	for k, v := range s.ctl.Mem.Counters().Snapshot() {
		out[k] = v
	}
	return out
}

// Save serializes the store's durable NVM state (the sealed tree image,
// the durable position map, the seal-version cursor, and — with
// integrity enabled — the trusted root). Volatile state is deliberately
// not saved: loading a snapshot IS a recovery.
func (s *Store) Save(w io.Writer) error { return s.ctl.SaveDurable(w) }

// LoadStore reconstructs a Store from a snapshot written by Save. cfg
// supplies run-time parameters (stash and WPQ sizes); the
// geometry and contents come from the snapshot. With cfg.Integrity set,
// the image is verified against the snapshot's trusted root and a
// tampered snapshot fails to load.
func LoadStore(r io.Reader, cfg Config) (*Store, error) {
	ctl, err := core.LoadDurable(r, cfg, core.Options{Untimed: true})
	if err != nil {
		return nil, err
	}
	return &Store{ctl: ctl}, nil
}

// ---------------------------------------------------------------------
// Serving layer
// ---------------------------------------------------------------------

// Pool is the concurrent serving layer: the keyspace striped across
// independent single-threaded stores (one goroutine per shard, bounded
// queues, batched protocol rounds, crash recovery in place). See
// internal/serve for the concurrency model.
type Pool = serve.Pool

// PoolStats and ShardStats snapshot a serving pool's counters.
type (
	PoolStats  = serve.PoolStats
	ShardStats = serve.ShardStats
)

// Serving-layer errors.
var (
	// ErrOverloaded reports a full shard queue; the request was never
	// enqueued and may be retried after backoff.
	ErrOverloaded = serve.ErrOverloaded
	// ErrPoolClosed reports a submit after Close began.
	ErrPoolClosed = serve.ErrPoolClosed
	// ErrInterrupted reports an access cut short by a simulated power
	// failure; the shard has already recovered and the op may be
	// re-issued.
	ErrInterrupted = serve.ErrInterrupted
	// ErrResharding reports a request that hit a keyspace stripe frozen
	// by an in-flight Pool.Reshard; retry after brief backoff — every
	// other stripe keeps serving.
	ErrResharding = serve.ErrResharding
	// ErrReshardBusy reports a Pool.Reshard while another is running.
	ErrReshardBusy = serve.ErrReshardBusy
)

// PoolOption configures NewPool.
type PoolOption func(*serve.Options)

// WithShards sets the number of independent shard stores (default 4).
// For a durable pool whose directory holds a committed reshard
// topology, the on-disk topology wins and this value is ignored.
func WithShards(n int) PoolOption {
	return func(o *serve.Options) { o.Shards = n }
}

// WithPoolScheme selects the ORAM scheme each shard runs (default
// PS-ORAM).
func WithPoolScheme(s Scheme) PoolOption {
	return func(o *serve.Options) { o.Scheme = s }
}

// WithPoolLevels forces each shard's tree height (default: derived from
// the shard's block count).
func WithPoolLevels(levels int) PoolOption {
	return func(o *serve.Options) { o.Levels = levels }
}

// WithPoolSeed sets the pool RNG root; each shard derives an
// independent stream from it, so pools built from the same seed are
// replicas.
func WithPoolSeed(seed uint64) PoolOption {
	return func(o *serve.Options) { o.Seed = seed }
}

// WithPoolConfig overrides the base configuration (NVM timing, WPQ
// sizes, block size).
func WithPoolConfig(cfg Config) PoolOption {
	return func(o *serve.Options) { o.Cfg = &cfg }
}

// WithQueueDepth bounds each shard's request queue (default 64); a full
// queue rejects with ErrOverloaded.
func WithQueueDepth(n int) PoolOption {
	return func(o *serve.Options) { o.QueueDepth = n }
}

// WithMaxBatch caps how many queued requests one protocol round
// coalesces (default 8).
func WithMaxBatch(n int) PoolOption {
	return func(o *serve.Options) { o.MaxBatch = n }
}

// WithPoolStorePath backs every shard with a durable on-disk store
// under dir (create-or-recover, including adoption of a committed
// reshard topology; flat Path ORAM schemes only).
func WithPoolStorePath(dir string) PoolOption {
	return func(o *serve.Options) { o.StoreDir = dir }
}

// WithPoolFactory overrides backend construction (tests, custom
// schemes). The factory is handed each shard's index and local block
// count.
func WithPoolFactory(f serve.Factory) PoolOption {
	return func(o *serve.Options) { o.Factory = f }
}

// WithPoolSerial turns intra-shard read-combining off: every request is
// its own physical access, the strict serial protocol. Without it,
// duplicate reads in one round share an access.
func WithPoolSerial() PoolOption {
	return func(o *serve.Options) { o.Serial = true }
}

// WithPoolGroupCommit batches each durable shard's persist barrier
// across up to n accesses, holding each request's ack until its group
// is durable — an acked request is still always recoverable after kill
// -9, the commit point just covers a group instead of one access. d
// bounds how long an idle shard may hold an open group (0 picks a small
// default). n <= 1 keeps the serial per-access barrier. No effect on
// pools without durable storage.
func WithPoolGroupCommit(n int, d time.Duration) PoolOption {
	return func(o *serve.Options) {
		o.GroupCommitOps = n
		o.GroupCommitDelay = d
	}
}

// NewPool builds and starts a concurrent serving pool over numBlocks
// logical blocks:
//
//	pool, err := psoram.NewPool(4096, psoram.WithShards(4))
//	defer pool.Close(ctx)
//	v, err := pool.Read(ctx, 17)
//
// A live pool re-stripes online with pool.Reshard(ctx, n): unaffected
// keyspace stripes keep serving, migrating ones answer ErrResharding
// until their move commits, and on a durable pool the new topology is
// crash-atomic (see DESIGN.md, "Elastic resharding").
func NewPool(numBlocks uint64, opts ...PoolOption) (*Pool, error) {
	o := serve.Options{NumBlocks: numBlocks}
	for _, opt := range opts {
		opt(&o)
	}
	return serve.New(o)
}

// ---------------------------------------------------------------------
// Network front-end
// ---------------------------------------------------------------------

// NetServer serves a Pool over a length-prefixed binary TCP protocol
// (versioned frames, request-id multiplexing, pipelining, in-band
// RETRY_AFTER backpressure). See internal/netserve and the README's
// "Network serving" section for the wire format.
type NetServer = netserve.Server

// NetServerOptions tunes the network front-end.
type NetServerOptions = netserve.ServerOptions

// NetClient is the matching client: one multiplexed connection, safe
// for concurrent use, honouring context deadlines at every stage.
type NetClient = netserve.Client

// NetClientOptions tunes DialNet.
type NetClientOptions = netserve.ClientOptions

// NewNetServer wraps pool in a network front-end. Start it with
// Serve/ListenAndServe; stop it with Shutdown (which drains connections
// but leaves closing the pool to the caller):
//
//	srv := psoram.NewNetServer(pool, psoram.NetServerOptions{})
//	go srv.ListenAndServe(":7333")
func NewNetServer(pool *Pool, opts NetServerOptions) *NetServer {
	return netserve.NewServer(pool, opts)
}

// DialNet connects to a NetServer:
//
//	c, err := psoram.DialNet("localhost:7333", psoram.NetClientOptions{})
//	v, err := c.Read(ctx, 17)
func DialNet(addr string, opts NetClientOptions) (*NetClient, error) {
	return netserve.Dial(addr, opts)
}

// ---------------------------------------------------------------------
// Timing simulation
// ---------------------------------------------------------------------

// SimResult aggregates one timing run.
type SimResult = sim.Result

// Workloads lists the Table 4 workload names.
func Workloads() []string {
	ws := trace.Table4()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// Simulate runs the full-system timing model: `accesses` LLC misses of
// the named Table 4 workload under the scheme, on a tree of the given
// height (the paper's Table 3 uses 23).
func Simulate(scheme Scheme, cfg Config, workload string, accesses, levels int) (SimResult, error) {
	w, err := trace.ByName(workload)
	if err != nil {
		return SimResult{}, err
	}
	return sim.Simulate(context.Background(), sim.Request{
		Scheme: scheme, Config: cfg, Workload: w, N: accesses, Levels: levels,
	})
}

// SimulateTrace replays a recorded trace file (the `psoram trace` format)
// through the timing model.
func SimulateTrace(scheme Scheme, cfg Config, path string, levels int) (SimResult, error) {
	recs, err := trace.Load(path)
	if err != nil {
		return SimResult{}, err
	}
	if recs == nil {
		recs = []trace.Record{}
	}
	return sim.Simulate(context.Background(), sim.Request{
		Scheme: scheme, Config: cfg, Records: recs, TraceName: path, Levels: levels,
	})
}

// SimulateThroughCaches is Simulate with raw memory references filtered
// through the Table 3a L1D/L2 hierarchy: the LLC miss rate emerges from
// cache behaviour instead of Table 4's MPKI. refs counts raw references.
func SimulateThroughCaches(scheme Scheme, cfg Config, workload string, refs, levels int) (SimResult, error) {
	w, err := trace.ByName(workload)
	if err != nil {
		return SimResult{}, err
	}
	return sim.Simulate(context.Background(), sim.Request{
		Scheme: scheme, Config: cfg, Workload: w, N: refs, Levels: levels, ThroughCaches: true,
	})
}

// ---------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------

// ExperimentOptions scales the experiment runs (see report.Options).
type ExperimentOptions = report.Options

// DefaultExperimentOptions returns quick-run experiment options.
func DefaultExperimentOptions() ExperimentOptions { return report.Default() }

// Experiments lists the runnable experiment names.
func Experiments() []string { return report.Names() }

// RunExperiment regenerates one paper artifact and returns its rendered
// table.
func RunExperiment(name string, o ExperimentOptions) (string, error) {
	tabs, _, err := report.Run(o, name)
	if err != nil {
		return "", err
	}
	return tabs[0].String(), nil
}

// ---------------------------------------------------------------------
// Crash-consistency validation
// ---------------------------------------------------------------------

// CrashSweepResult summarizes a crash-injection sweep.
type CrashSweepResult = crash.SweepResult

// VerifyCrashConsistency sweeps injected power failures over a write
// workload for the given scheme and reports how many crash points
// recovered to a consistent state: to the history's prefix i or i+1,
// with op i in flight. PS-ORAM schemes recover from all of them; the
// baselines do not — which is the paper's point. A sweep in which no
// point fires (too few accesses) is an error.
func VerifyCrashConsistency(scheme Scheme, accesses int, seed uint64) (CrashSweepResult, error) {
	r, w, pts := crash.Matrix(accesses, seed)
	return r.Sweep(scheme, w, pts)
}
