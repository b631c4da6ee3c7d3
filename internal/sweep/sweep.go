// Package sweep is the repository's one experiment engine: it fans a
// full (scheme × workload × channels × seed) grid, or an explicit list of
// cells (RunCells), out across a bounded pool of goroutines, one
// independent timing simulator per cell, and aggregates the per-cell
// sim.Results. `psoram sweep` runs grids; internal/report renders the
// paper's figures from one RunCells; ForEach, the pool itself, also runs
// the crash matrix.
//
// Determinism is the design center. Every cell of a grid derives its own seed from
// the grid's root seed and the cell's coordinates (rng.DeriveSeed) —
// never from shared RNG state — so a sweep produces byte-identical
// results on 1 worker and on N, and a single cell re-run in isolation
// reproduces its in-grid result exactly. The simulator stack
// (internal/sim, internal/mem, internal/nvm, internal/rng, internal/trace)
// keeps all mutable state per instance, which is what makes the fan-out
// race-free; TestConcurrentSystemsAreIndependent and `go test -race`
// guard that property.
//
// One bad cell must not kill a 400-cell sweep: panics inside a cell are
// captured into that cell's result and errors are recorded per cell.
// Context cancellation stops feeding new cells AND aborts in-flight ones
// mid-run: the context is plumbed into sim.Simulate, whose access-loop
// checkpoints return the context error, so a cancelled sweep stops
// within microseconds instead of waiting out whole cells.
package sweep

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Grid describes a full experiment grid. The cross product of Schemes ×
// Workloads × Channels × Seeds is one sweep.
type Grid struct {
	Schemes   []config.Scheme
	Workloads []trace.Workload
	// Channels lists the memory-channel counts to sweep (default {1}).
	Channels []int
	// Seeds is the number of seed replicas per point (default 1).
	Seeds int
	// RootSeed anchors per-cell seed derivation (default 1).
	RootSeed uint64
	// Accesses is the LLC-miss count per cell (at least 1).
	Accesses int
	// Levels is the simulated tree height (default 16).
	Levels int
	// Cfg is the base configuration; Channels and Seed are overridden per
	// cell. A zero BlockBytes means config.Default().
	Cfg config.Config
}

// withDefaults fills unset fields.
func (g Grid) withDefaults() Grid {
	if len(g.Channels) == 0 {
		g.Channels = []int{1}
	}
	if g.Seeds <= 0 {
		g.Seeds = 1
	}
	if g.RootSeed == 0 {
		g.RootSeed = 1
	}
	if g.Levels == 0 {
		g.Levels = 16
	}
	if g.Cfg.BlockBytes == 0 {
		g.Cfg = config.Default()
	}
	return g
}

// Validate checks the grid before any cell runs, surfacing the same
// messages the per-cell constructors would (unknown workloads are caught
// earlier, by trace.ByName, in callers that parse names).
func (g Grid) Validate() error {
	if len(g.Schemes) == 0 {
		return fmt.Errorf("sweep: grid has no schemes")
	}
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweep: grid has no workloads")
	}
	names := make([]string, len(g.Workloads))
	for i, w := range g.Workloads {
		names[i] = w.Name
	}
	if err := cmp.Or(repeated("scheme", g.Schemes), repeated("workload", names), repeated("channel count", g.Channels)); err != nil {
		return err
	}
	if g.Accesses < 1 {
		return fmt.Errorf("sweep: need at least 1 access, got %d", g.Accesses)
	}
	if g.Levels < 4 || g.Levels > 26 {
		return fmt.Errorf("sim: tree height %d out of range [4,26]", g.Levels)
	}
	for _, ch := range g.Channels {
		cfg := g.Cfg
		cfg.Channels = ch
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// repeated names the first value that occurs twice in a grid axis: a
// repeated coordinate would run the same cell, under the same seed, twice.
func repeated[T comparable](axis string, vals []T) error {
	for i, v := range vals {
		if slices.Contains(vals[:i], v) {
			return fmt.Errorf("sweep: %s %v listed twice", axis, v)
		}
	}
	return nil
}

// Cell is one grid point: the coordinates plus the derived seed.
type Cell struct {
	Scheme    config.Scheme
	Workload  trace.Workload
	Channels  int
	SeedIndex int
	// Seed is derived from the grid's root seed and this cell's
	// coordinates; it is independent of the grid's shape, so the same
	// cell re-run alone reproduces its in-grid result.
	Seed uint64
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/ch%d/s%d", c.Scheme, c.Workload.Name, c.Channels, c.SeedIndex)
}

// CellSeed derives the deterministic per-run seed for a cell. The scheme
// enum value, workload name hash, channel count, and seed index all feed
// the derivation, so no two cells of any grid share a seed stream.
func CellSeed(root uint64, scheme config.Scheme, workload string, channels, seedIndex int) uint64 {
	return rng.DeriveSeed(root,
		uint64(scheme), rng.HashString(workload), uint64(channels), uint64(seedIndex))
}

// Cells enumerates the grid in deterministic scheme-major order.
func (g Grid) Cells() []Cell {
	g = g.withDefaults()
	out := make([]Cell, 0, len(g.Schemes)*len(g.Workloads)*len(g.Channels)*g.Seeds)
	for _, s := range g.Schemes {
		for _, w := range g.Workloads {
			for _, ch := range g.Channels {
				for si := 0; si < g.Seeds; si++ {
					out = append(out, Cell{
						Scheme: s, Workload: w, Channels: ch, SeedIndex: si,
						Seed: CellSeed(g.RootSeed, s, w.Name, ch, si),
					})
				}
			}
		}
	}
	return out
}

// CellResult is the outcome of one cell.
type CellResult struct {
	Cell   Cell
	Result sim.Result
	// Err records a simulator error or a captured panic; Skipped marks
	// cells never started because the context was cancelled.
	Err     error
	Panic   string
	Skipped bool
	Wall    time.Duration
}

// Options tunes a sweep run.
type Options struct {
	// Workers bounds concurrency; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnResult, when non-nil, observes each completed cell. Calls are
	// serialized and `done` is monotonic, but completion order across
	// workers is nondeterministic — only the aggregated Results order is.
	OnResult func(done, total int, r CellResult)
}

// Results aggregates a sweep. Cells is in the order the cells were given
// (Grid.Cells for Run) regardless of execution interleaving.
type Results struct {
	Grid    Grid
	Workers int
	Cells   []CellResult
	// Wall is the sweep's elapsed time; CellTime the sum of per-cell
	// times. CellTime/Wall estimates the achieved parallel speedup.
	Wall     time.Duration
	CellTime time.Duration
}

// Speedup returns the achieved parallelism: aggregate cell time over
// sweep wall time (≈1 on a serial run, →Workers when cells dominate).
func (r *Results) Speedup() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.CellTime) / float64(r.Wall)
}

// Failed returns the cells that errored, panicked, or were skipped.
func (r *Results) Failed() []CellResult {
	var out []CellResult
	for _, c := range r.Cells {
		if c.Err != nil || c.Skipped {
			out = append(out, c)
		}
	}
	return out
}

// FirstError returns the first failed cell's error, or nil.
func (r *Results) FirstError() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return fmt.Errorf("sweep: cell %s: %w", c.Cell, c.Err)
		}
		if c.Skipped {
			return fmt.Errorf("sweep: cell %s skipped (cancelled)", c.Cell)
		}
	}
	return nil
}

// Run executes the grid across a bounded worker pool. Per-cell failures
// (errors and panics) land in the corresponding CellResult; Run itself
// errors only on an invalid grid or a cancelled context (returning the
// partial results alongside the error).
func Run(ctx context.Context, g Grid, opt Options) (*Results, error) {
	if err := g.withDefaults().Validate(); err != nil {
		return nil, err
	}
	return RunCells(ctx, g, g.Cells(), opt)
}

// RunCells is Run over an explicit cell list: each cell runs under its
// own Seed, with g supplying everything else. The cells are not validated
// up front; a bad one fails alone, with the simulator's error.
func RunCells(ctx context.Context, g Grid, cells []Cell, opt Options) (*Results, error) {
	g = g.withDefaults()
	workers := poolSize(opt.Workers, len(cells))
	res := &Results{Grid: g, Workers: workers, Cells: make([]CellResult, len(cells))}
	var (
		mu   sync.Mutex // serializes OnResult, done and CellTime
		done int
	)
	start := time.Now()
	fed := ForEach(ctx, len(cells), workers, func(i int) {
		cr := runCell(ctx, g, cells[i])
		res.Cells[i] = cr
		mu.Lock()
		defer mu.Unlock()
		done++
		res.CellTime += cr.Wall
		if opt.OnResult != nil {
			opt.OnResult(done, len(cells), cr)
		}
	})
	res.Wall = time.Since(start)
	for i := fed; i < len(cells); i++ {
		res.Cells[i] = CellResult{Cell: cells[i], Skipped: true}
	}
	return res, ctx.Err()
}

// ForEach is the repository's one worker pool: it calls fn(i) for every
// i in [0, n) on at most workers goroutines (<=0 means GOMAXPROCS),
// handing the indices out in order. Once ctx is done it hands out no
// more; it waits for the calls in flight and returns how many indices it
// handed out, so fn ran for exactly the i below the result.
func ForEach(ctx context.Context, n, workers int, fn func(i int)) int {
	var wg sync.WaitGroup
	idx := make(chan int)
	for range poolSize(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < n; fed++ {
		select {
		case idx <- fed:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return fed
}

// poolSize resolves a requested worker count for n tasks.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// runCell executes one independent simulation. The context reaches
// sim.Simulate's loop checkpoints, so cancelling the sweep aborts the
// cell mid-run.
func runCell(ctx context.Context, g Grid, c Cell) CellResult {
	return runProtected(c, func() (sim.Result, error) {
		cfg := g.Cfg
		cfg.Channels = c.Channels
		cfg.Seed = c.Seed
		return sim.Simulate(ctx, sim.Request{
			Scheme:   c.Scheme,
			Config:   cfg,
			Workload: c.Workload,
			N:        g.Accesses,
			Levels:   g.Levels,
		})
	})
}

// runProtected wraps one cell's work with timing and panic capture, so a
// bad cell cannot take the whole sweep down.
func runProtected(c Cell, fn func() (sim.Result, error)) (cr CellResult) {
	cr.Cell = c
	start := time.Now()
	defer func() {
		cr.Wall = time.Since(start)
		if p := recover(); p != nil {
			cr.Panic = fmt.Sprintf("%v\n%s", p, debug.Stack())
			cr.Err = fmt.Errorf("sweep: panic in cell %s: %v", c, p)
		}
	}()
	cr.Result, cr.Err = fn()
	return cr
}
