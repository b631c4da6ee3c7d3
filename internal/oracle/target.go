package oracle

import (
	"fmt"
	"io"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

// ErrCrashed is the error a target's Access returns when an armed
// injector fired: core.ErrCrashed itself.
var ErrCrashed = core.ErrCrashed

// CrashSpec is a crash-injection offer in the shared step numbering
// (core.DeclaredSteps): core's CrashPoint under the oracle's name.
type CrashSpec = core.CrashPoint

// Target is the oracle's uniform view of a system under test. Access
// runs one protocol access and returns the value read (the previous
// value for writes) plus the leaf whose path was read; Peek reads an
// address without a protocol access; Invariants checks the scheme's
// structural invariants (stash bounds, block placement, metadata
// coherence) and returns every violation found.
type Target interface {
	Scheme() config.Scheme
	NumBlocks() uint64
	BlockBytes() int
	// Leaves returns the tree's leaf count, or 0 when the scheme has no
	// ORAM tree (NonORAM) — the leaf returned by Access is then
	// meaningless and the obliviousness probe is skipped.
	Leaves() uint64
	// Access performs one protocol access. The returned value may alias
	// a target-owned buffer and is only valid until the next call on the
	// same target; callers that retain it must copy.
	Access(op oram.Op, addr oram.Addr, data []byte) (value []byte, leaf oram.Leaf, err error)
	Peek(addr oram.Addr) ([]byte, error)
	Invariants() []error
}

// Params selects and sizes a system under test.
type Params struct {
	Scheme    config.Scheme
	NumBlocks uint64
	Levels    int
	Seed      uint64
	// Cfg overrides the base configuration; nil means config.Default().
	Cfg *config.Config
	// StoreDir, when non-empty, backs the target with a durable on-disk
	// store (create-or-recover; see core.Options.StoreDir). Flat Path
	// ORAM schemes only.
	StoreDir string
	// GroupCommitOps batches the durable persist barrier across this
	// many accesses (core schemes with StoreDir only; <= 1 keeps the
	// per-access serial barrier). Acks must then wait on OnCommit.
	GroupCommitOps int
	// GroupCommitDelay is the matching idle-flush bound. Nothing below
	// internal/serve reads it: the serving layer's idle flush runs on
	// serve.Options.GroupCommitDelay, and the benchmark carries its
	// value there through this field.
	GroupCommitDelay time.Duration
}

func (p Params) config() config.Config {
	if p.Cfg != nil {
		return *p.Cfg
	}
	return config.Default()
}

// NewTarget builds a fresh functional system for the scheme. Every
// scheme in config.Schemes() is constructible: the core controller
// covers the Path ORAM family and NonORAM gets a plain store (trivially
// correct, so the harness's "every scheme" sweeps hold literally).
func NewTarget(p Params) (Target, error) {
	if !p.Scheme.Policy().ORAM && p.NumBlocks > 0 && p.StoreDir == "" {
		return &plainTarget{
			scheme: p.Scheme,
			n:      p.NumBlocks,
			bb:     p.config().BlockBytes,
			m:      make(map[oram.Addr][]byte),
		}, nil
	}
	ctl, err := NewController(p)
	if err != nil {
		return nil, err
	}
	return &coreTarget{ctl: ctl}, nil
}

// NewController builds the core controller behind a Path ORAM family
// target, in memory or over a durable store at p.StoreDir: p maps onto
// one core.New call.
func NewController(p Params) (*core.Controller, error) {
	if p.NumBlocks == 0 {
		return nil, fmt.Errorf("oracle: Params.NumBlocks is required")
	}
	if !p.Scheme.Policy().ORAM {
		return nil, fmt.Errorf("oracle: scheme %s has no ORAM controller", p.Scheme)
	}
	cfg := p.config()
	cfg.Seed = p.Seed
	// Targets are judged on values, leaves, durable state and
	// counters, none of which depend on device timing: build the
	// controller over the untimed memory model.
	return core.New(p.Scheme, cfg, core.Options{
		NumBlocks:   p.NumBlocks,
		Levels:      p.Levels,
		GroupCommit: core.GroupCommit{MaxOps: p.GroupCommitOps},
		Untimed:     true,
		StoreDir:    p.StoreDir,
	})
}

// --- core (Path ORAM family) adapter ---

type coreTarget struct {
	ctl *core.Controller
}

func (t *coreTarget) Scheme() config.Scheme { return t.ctl.Scheme }
func (t *coreTarget) NumBlocks() uint64     { return t.ctl.ORAM.NumBlocks() }
func (t *coreTarget) BlockBytes() int       { return t.ctl.Cfg.BlockBytes }
func (t *coreTarget) Leaves() uint64        { return t.ctl.ORAM.Tree.Leaves() }

func (t *coreTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	res, err := t.ctl.Access(op, addr, data)
	if err != nil {
		return nil, 0, err
	}
	return res.Value, res.PathLeaf, nil
}

func (t *coreTarget) Peek(addr oram.Addr) ([]byte, error) { return t.ctl.Peek(addr) }

// currentLeaf reconstructs the controller's working view: the temporary
// PosMap overlays the on-chip map (the same rule core.currentLeaf
// applies internally).
func (t *coreTarget) currentLeaf(a oram.Addr) oram.Leaf {
	if l, ok := t.ctl.Temp.Lookup(a); ok {
		return l
	}
	return t.ctl.ORAM.PosMap.Lookup(a)
}

func (t *coreTarget) Arm(fire func(CrashSpec) bool) { t.ctl.CrashAt = fire }

func (t *coreTarget) Recover() error { return t.ctl.Recover() }

// Close persists and releases the durable backend, if any, and frees the
// controller's images (io.Closer — the serving layer closes every shard
// it retires through this).
func (t *coreTarget) Close() error { return t.ctl.Close() }

// Cycles reports the controller's cycle cursor. Targets run over the
// untimed memory model, so it starts at 0, advances only by the fixed
// crypto latencies and measures nothing; it stays because the
// benchmark's backend wrapper forwards it.
func (t *coreTarget) Cycles() uint64 { return uint64(t.ctl.Now()) }

// SaveDurable serializes the controller's durable NVM image. Nothing
// in the program calls it; it stays because the benchmark's
// stockBackend names it.
func (t *coreTarget) SaveDurable(w io.Writer) error { return t.ctl.SaveDurable(w) }

// SnapshotConfig returns the controller's effective configuration.
// Nothing in the program calls it; it stays because the benchmark's
// stockBackend names it.
func (t *coreTarget) SnapshotConfig() config.Config { return t.ctl.Cfg }

// Prefetch does nothing: benchmark/trace.go's stockBackend names it.
func (t *coreTarget) Prefetch(oram.Addr) {}

// StageNanos exposes the controller's cumulative per-stage wall time
// (load / crypto / evict / seal / persist) for the serving layer's
// histograms.
func (t *coreTarget) StageNanos() [core.NumStages]int64 { return t.ctl.StageNanos() }

// OnCommit registers fn to fire once the most recently completed
// access is durable (inline when it already is) — the serving layer
// holds acks on it under group commit.
func (t *coreTarget) OnCommit(fn func(error)) { t.ctl.OnCommit(fn) }

// FlushCommits closes and flushes the open commit group (the serving
// layer's idle flush and drain-on-close hook).
func (t *coreTarget) FlushCommits() error { return t.ctl.FlushCommits() }

// CommitPending reports whether acked-but-not-yet-durable accesses are
// waiting on an open commit group.
func (t *coreTarget) CommitPending() bool { return t.ctl.CommitPending() }

// SetCommitObserver forwards per-group flush observations (ops covered,
// barrier wall time) to the serving layer's histograms.
func (t *coreTarget) SetCommitObserver(fn func(ops int, persistNanos int64)) {
	t.ctl.SetCommitObserver(fn)
}

// --- NonORAM adapter: a plain store, no tree, no crash model ---

type plainTarget struct {
	scheme config.Scheme
	n      uint64
	bb     int
	m      map[oram.Addr][]byte
}

func (t *plainTarget) Scheme() config.Scheme { return t.scheme }
func (t *plainTarget) NumBlocks() uint64     { return t.n }
func (t *plainTarget) BlockBytes() int       { return t.bb }
func (t *plainTarget) Leaves() uint64        { return 0 }

func (t *plainTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	if uint64(addr) >= t.n {
		return nil, 0, fmt.Errorf("oracle: access to addr %d outside [0,%d)", addr, t.n)
	}
	prev, err := t.Peek(addr)
	if err != nil {
		return nil, 0, err
	}
	if op == oram.OpWrite {
		if len(data) != t.bb {
			return nil, 0, fmt.Errorf("oracle: write of %d bytes, block size %d", len(data), t.bb)
		}
		t.m[addr] = append([]byte(nil), data...)
	}
	return prev, 0, nil
}

func (t *plainTarget) Peek(addr oram.Addr) ([]byte, error) {
	if v, ok := t.m[addr]; ok {
		return append([]byte(nil), v...), nil
	}
	return make([]byte, t.bb), nil
}

func (t *plainTarget) Invariants() []error { return nil }

// Recover is a no-op: the plain store has no crash model, but providing
// it lets NonORAM satisfy the serving layer's recoverable-backend shape.
func (t *plainTarget) Recover() error { return nil }
