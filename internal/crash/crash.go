// Package crash runs the §3.3 crash-recoverability matrix: for each
// scheme and each swept protocol point it builds a fresh timed
// controller, drives a workload, injects a simulated power failure at
// that exact point, recovers, and reads every address back — one
// oracle.RunTrial per point.
//
// A point counts as consistent iff the recovered store equals the
// history's prefix i or i+1, where op i was in flight when power failed
// (the oracle package's prefix rule, the same one the kill -9 and
// reshard tortures use). The persistent schemes (PS-ORAM, Naïve-PS-ORAM,
// Rcr-PS-ORAM, eADR-ORAM) meet it at every matrix point; the randomized
// tortures find the one hole they have (DESIGN.md §4, "Known hole"). The
// volatile baselines
// (Baseline, Rcr-Baseline) and FullNVM do not: FullNVM keeps stash and
// PosMap in NVM, so its values survive, but its updates are not atomic
// and the matrix catches the windows in which they tear (the paper's
// motivation for PS-ORAM).
package crash

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/sweep"
)

// Workload drives accesses; it must be deterministic for a given seed.
type Workload struct {
	NumBlocks uint64
	Accesses  int
	Seed      uint64
	// WriteRatio in [0,1]: fraction of accesses that are writes.
	WriteRatio float64
}

// Ops emits the workload as an op history: an LCG stream picks each
// op's address and kind, and the v-th write carries oracle.Value(addr, v).
func (w Workload) Ops(blockBytes int) []oracle.Op {
	rng := w.Seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*2862933555777941757 + 3037000493
		return int((rng >> 33) % uint64(n))
	}
	ops := make([]oracle.Op, 0, max(w.Accesses, 0))
	version := 0
	for i := 0; i < w.Accesses; i++ {
		op := oracle.Op{Addr: uint64(next(int(w.NumBlocks)))}
		if float64(next(1000))/1000 < w.WriteRatio {
			version++
			op.Write, op.Data = true, oracle.Value(op.Addr, version, blockBytes)
		}
		ops = append(ops, op)
	}
	return ops
}

// Runner executes crash experiments.
type Runner struct {
	Cfg    config.Config
	Blocks uint64
	Levels int
}

// Matrix is the §3.3 recoverability study at functional scale, the one
// small-tree configuration every crash table in the repository runs on:
// an L=5 tree of 80 blocks with a 150-entry stash, a 16-entry temporary
// PosMap and write buffer, and the on-chip PosMap budget cut to match,
// driven by a half-writes workload of the given length and swept over
// SweepPoints. Small on purpose: every point builds a fresh controller.
func Matrix(accesses int, seed uint64) (Runner, Workload, []core.CrashPoint) {
	const blocks, levels = 80, 5
	cfg := config.Default()
	cfg.StashEntries = 150
	cfg.TempPosMapSize = 16
	cfg.WriteBufferEntries = 16
	cfg.OnChipPosMapBytes = 4 * 64 * 8
	return Runner{Cfg: cfg, Blocks: blocks, Levels: levels},
		Workload{NumBlocks: blocks, Accesses: accesses, Seed: seed, WriteRatio: 0.5},
		SweepPoints(accesses, levels)
}

// MatrixSchemes lists the schemes the published crash table grades, in
// its row order.
func MatrixSchemes() []config.Scheme {
	return []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeNaivePSORAM,
		config.SchemePSORAM, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
		config.SchemeEADRORAM,
	}
}

// RunOnce builds a fresh controller, drives the workload with a power
// failure armed at point, recovers, and reads every address back.
func (r Runner) RunOnce(scheme config.Scheme, w Workload, point core.CrashPoint) (oracle.CrashTrial, error) {
	ctl, err := core.New(scheme, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
	if err != nil {
		return oracle.CrashTrial{}, err
	}
	defer ctl.Close()
	return oracle.RunTrial(ctl, w.Ops(r.Cfg.BlockBytes), point, nil)
}

// SweepPoints enumerates a representative set of distinct crash points
// for a workload of the given length and tree height: every protocol
// step, several path-load sub-steps, write-back sub-steps, and
// between-access points, spread across early/middle/late accesses.
func SweepPoints(accesses, levels int) []core.CrashPoint {
	var pts []core.CrashPoint
	var seen []uint64
	for _, acc := range []int{0, accesses / 3, accesses / 2, accesses - 2} {
		if acc < 0 || acc >= accesses || slices.Contains(seen, uint64(acc)) {
			continue
		}
		seen = append(seen, uint64(acc))
		for _, p := range []core.CrashPoint{
			{Step: 2, Sub: -1},
			{Step: 3, Sub: 0}, {Step: 3, Sub: levels / 2}, {Step: 3, Sub: levels},
			{Step: 4, Sub: -1},
			{Step: 5, Sub: 0}, {Step: 5, Sub: 7}, {Step: 5, Sub: 20},
			{Step: 6, Sub: -1},
		} {
			p.Access = uint64(acc)
			pts = append(pts, p)
		}
	}
	return pts
}

// SweepResult tallies one scheme's row of a sweep.
type SweepResult struct {
	Scheme     config.Scheme
	Fired      int                 // points that actually triggered
	Consistent int                 // fired points that recovered consistently
	Failures   []oracle.CrashTrial // fired points that did not
}

// Sweep runs the workload against every point for one scheme.
func (r Runner) Sweep(scheme config.Scheme, w Workload, points []core.CrashPoint) (SweepResult, error) {
	res, err := r.SweepAll(context.Background(), []config.Scheme{scheme}, w, points, 0)
	if err != nil {
		return SweepResult{Scheme: scheme}, err
	}
	return res[0], nil
}

// SweepAll runs RunOnce for every (scheme, point) pair on sweep's
// worker pool, at most workers at a time (0 means GOMAXPROCS), and
// aggregates per scheme, in scheme order. Each pair builds a fresh
// controller, so the order they run in cannot affect the outcome. A
// scheme none of whose points fired is an error: its row would be a
// verdict about nothing.
func (r Runner) SweepAll(ctx context.Context, schemes []config.Scheme, w Workload, points []core.CrashPoint, workers int) ([]SweepResult, error) {
	n := len(schemes) * len(points)
	if n == 0 {
		return nil, fmt.Errorf("crash: empty sweep")
	}
	trials := make([]oracle.CrashTrial, n)
	errs := make([]error, n)
	sweep.ForEach(ctx, n, workers, func(i int) {
		trials[i], errs[i] = r.RunOnce(schemes[i/len(points)], w, points[i%len(points)])
	})
	if err := ctx.Err(); err != nil {
		return nil, err // the feed may have stopped short
	}

	results := make([]SweepResult, len(schemes))
	for i := range trials {
		res := &results[i/len(points)]
		res.Scheme = schemes[i/len(points)]
		if errs[i] != nil {
			return nil, fmt.Errorf("crash: %v at %v: %w", res.Scheme, points[i%len(points)], errs[i])
		}
		res.Add(trials[i])
	}
	for _, res := range results {
		if res.Fired == 0 {
			return nil, fmt.Errorf("crash: %v: none of %d crash points fired over %d accesses", res.Scheme, len(points), w.Accesses)
		}
	}
	return results, nil
}

// Add folds one trial into the tally; a point the workload never
// reached counts for nothing.
func (res *SweepResult) Add(t oracle.CrashTrial) {
	if !t.Fired {
		return
	}
	res.Fired++
	if t.Consistent() {
		res.Consistent++
	} else {
		res.Failures = append(res.Failures, t)
	}
}

// Verdict is the table cell: did every fired point recover consistently.
func (res SweepResult) Verdict() string {
	if res.Consistent < res.Fired {
		return "CORRUPTS"
	}
	return "CRASH CONSISTENT"
}
