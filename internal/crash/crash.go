// Package crash implements the crash-consistency validation harness: it
// drives a core.Controller through a workload, injects a simulated power
// failure at a chosen protocol point, runs recovery, and checks the
// recovered state against a durability oracle.
//
// The oracle's rule mirrors §3.3 of the paper:
//
//   - for persistent schemes (PS-ORAM, Naïve-PS-ORAM, Rcr-PS-ORAM,
//     eADR-ORAM, FullNVM*): after recovery every address must read
//     exactly its latest *durable* value — the last value that a
//     committed WPQ batch (or the scheme's persistence domain) made
//     reachable from the durable position map;
//   - for the volatile baselines (Baseline, Rcr-Baseline): the weaker
//     recoverability check — every address must still be readable and
//     hold *some* previously written value. The paper's case studies
//     predict even this fails, which is exactly what the harness
//     demonstrates.
//
// (*) FullNVM keeps stash and PosMap in NVM, so its values are durable at
// access end — but its updates are not atomic, and the harness catches
// the windows in which they tear (the paper's motivation for PS-ORAM).
package crash

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

// Workload drives accesses; it must be deterministic for a given seed.
type Workload struct {
	NumBlocks uint64
	Accesses  int
	Seed      uint64
	// WriteRatio in [0,1]: fraction of accesses that are writes.
	WriteRatio float64
}

// Violation describes one consistency failure found after recovery.
type Violation struct {
	Addr oram.Addr
	Want []byte // latest durable value ("" for readability check)
	Got  []byte
	Err  error // non-nil when the address was unreadable
}

func (v Violation) String() string {
	if v.Err != nil {
		return fmt.Sprintf("addr %d unreadable after recovery: %v", v.Addr, v.Err)
	}
	return fmt.Sprintf("addr %d: recovered %.12q, latest durable %.12q", v.Addr, v.Got, v.Want)
}

// Report summarizes one injected crash.
type Report struct {
	Scheme     config.Scheme
	Point      core.CrashPoint
	Fired      bool // the crash point was actually reached
	Violations []Violation
	// AccessesBefore counts completed accesses before the crash.
	AccessesBefore uint64
}

// Consistent reports whether recovery restored a consistent state.
func (r Report) Consistent() bool { return r.Fired && len(r.Violations) == 0 }

// oracle tracks per-address durable values and full version history.
type oracle struct {
	blockBytes int
	durable    map[oram.Addr][]byte
	history    map[oram.Addr][][]byte
}

func newOracle(numBlocks uint64, blockBytes int) *oracle {
	o := &oracle{
		blockBytes: blockBytes,
		durable:    make(map[oram.Addr][]byte, numBlocks),
		history:    make(map[oram.Addr][][]byte, numBlocks),
	}
	zero := make([]byte, blockBytes)
	for a := oram.Addr(0); uint64(a) < numBlocks; a++ {
		o.durable[a] = zero
		o.history[a] = [][]byte{zero}
	}
	return o
}

func (o *oracle) markDurable(addr oram.Addr, value []byte) {
	o.durable[addr] = value
}

func (o *oracle) recordWrite(addr oram.Addr, value []byte) {
	o.history[addr] = append(o.history[addr], append([]byte(nil), value...))
}

func (o *oracle) knownVersion(addr oram.Addr, value []byte) bool {
	for _, v := range o.history[addr] {
		if bytes.Equal(v, value) {
			return true
		}
	}
	return false
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

// value deterministically derives the payload for (addr, version).
func value(addr oram.Addr, version int, n int) []byte {
	b := make([]byte, n)
	copy(b, []byte(fmt.Sprintf("a%d.v%d!", addr, version)))
	return b
}

// RunOnce builds a fresh controller, runs the workload, crashes at the
// chosen point, recovers, and checks consistency.
func (r Runner) RunOnce(scheme config.Scheme, w Workload, point core.CrashPoint) (Report, error) {
	ctl, err := core.New(scheme, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
	if err != nil {
		return Report{}, err
	}
	o := newOracle(r.Blocks, r.Cfg.BlockBytes)
	ctl.OnDurable = o.markDurable

	fired := false
	ctl.CrashAt = func(p core.CrashPoint) bool {
		if p == point {
			fired = true
			return true
		}
		return false
	}

	crashed, err := r.drive(ctl, w, o.recordWrite)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Scheme: scheme, Point: point, Fired: fired, AccessesBefore: ctl.Accesses()}
	if !crashed {
		// The crash point was never reached (e.g. the workload ended
		// first); report non-fired so sweeps can skip it.
		return rep, nil
	}
	if err := ctl.Recover(); err != nil {
		return Report{}, err
	}
	rep.Violations = r.check(ctl, o)
	return rep, nil
}

// drive runs the workload's accesses against ctl, handing each write's
// address and payload to onWrite before it is issued. It reports whether
// an injected crash cut the run short.
func (r Runner) drive(ctl *core.Controller, w Workload, onWrite func(oram.Addr, []byte)) (crashed bool, err error) {
	rng := w.Seed*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*2862933555777941757 + 3037000493
		return int((rng >> 33) % uint64(n))
	}
	version := 0
	for i := 0; i < w.Accesses; i++ {
		addr := oram.Addr(next(int(w.NumBlocks)))
		op, data := oram.OpRead, []byte(nil)
		if float64(next(1000))/1000 < w.WriteRatio {
			version++
			op, data = oram.OpWrite, value(addr, version, r.Cfg.BlockBytes)
			onWrite(addr, data)
		}
		if _, err := ctl.Access(op, addr, data); err == core.ErrCrashed {
			return true, nil
		} else if err != nil {
			return false, fmt.Errorf("access %d: %w", i, err)
		}
	}
	return false, nil
}

// check compares post-recovery reads against the oracle.
func (r Runner) check(ctl *core.Controller, o *oracle) []Violation {
	var out []Violation
	strict := strictScheme(ctl.Scheme)
	for a := oram.Addr(0); uint64(a) < r.Blocks; a++ {
		got, err := ctl.Peek(a)
		if err != nil {
			out = append(out, Violation{Addr: a, Err: err})
			continue
		}
		if strict {
			if want := o.durable[a]; !bytes.Equal(got, want) {
				out = append(out, Violation{Addr: a, Want: want, Got: got})
			}
		} else if !o.knownVersion(a, got) {
			out = append(out, Violation{Addr: a, Got: got})
		}
	}
	return out
}

// strictScheme reports whether the scheme promises exact latest-durable
// recovery (vs. the weaker any-version readability check).
func strictScheme(s config.Scheme) bool {
	switch s {
	case config.SchemeBaseline, config.SchemeRcrBaseline:
		return false
	}
	return true
}

// DeclaredSteps lists the protocol steps every scheme's access path
// declares as crash-injection points (§2.2.2/§4.2.1 numbering): 2 =
// PosMap lookup/remap, 3 = path load (per-bucket sub-steps), 4 = stash
// update, 5 = write-back (per-slot/per-batch sub-steps), 6 = access
// complete. The coverage test asserts the torture harness reaches every
// one of them, so a new protocol step cannot silently go untested.
func DeclaredSteps() []int { return []int{2, 3, 4, 5, 6} }

// DeclaredStepsFor narrows DeclaredSteps to the steps a scheme actually
// exposes. eADR-ORAM has no step-5 point: its persistence domain covers
// the write buffers, so a power failure mid-write-back drains the
// remaining eviction and is indistinguishable from a crash after step 5
// (core.maybeCrash filters it for the same reason).
func DeclaredStepsFor(s config.Scheme) []int {
	if s == config.SchemeEADRORAM {
		return []int{2, 3, 4, 6}
	}
	return DeclaredSteps()
}

// ObservePoints runs the workload with a non-firing injector and returns
// how many times each protocol step was offered as a crash point. It is
// the coverage probe for the torture harness: a declared step that never
// appears here can never be crash-tested.
func (r Runner) ObservePoints(scheme config.Scheme, w Workload) (map[int]int, error) {
	ctl, err := core.New(scheme, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
	if err != nil {
		return nil, err
	}
	counts := make(map[int]int)
	ctl.CrashAt = func(p core.CrashPoint) bool {
		counts[p.Step]++
		return false
	}
	if _, err := r.drive(ctl, w, func(oram.Addr, []byte) {}); err != nil {
		return nil, err
	}
	return counts, nil
}

// SweepPoints enumerates a representative set of crash points for a
// workload of the given length and tree height: every protocol step,
// several path-load sub-steps, write-back sub-steps, and between-access
// points, spread across early/middle/late accesses.
func SweepPoints(accesses, levels int) []core.CrashPoint {
	var pts []core.CrashPoint
	for _, acc := range []uint64{0, uint64(accesses) / 3, uint64(accesses) / 2, uint64(accesses) - 2} {
		pts = append(pts,
			core.CrashPoint{Access: acc, Step: 2, Sub: -1},
			core.CrashPoint{Access: acc, Step: 3, Sub: 0},
			core.CrashPoint{Access: acc, Step: 3, Sub: levels / 2},
			core.CrashPoint{Access: acc, Step: 3, Sub: levels},
			core.CrashPoint{Access: acc, Step: 4, Sub: -1},
			core.CrashPoint{Access: acc, Step: 5, Sub: 0},
			core.CrashPoint{Access: acc, Step: 5, Sub: 7},
			core.CrashPoint{Access: acc, Step: 5, Sub: 20},
			core.CrashPoint{Access: acc, Step: 6, Sub: -1},
		)
	}
	return pts
}

// Sweep runs the workload against every point and aggregates results.
type SweepResult struct {
	Scheme     config.Scheme
	Fired      int // points that actually triggered
	Consistent int // fired points that recovered consistently
	Failures   []Report
}

// Sweep runs the workload against every point for one scheme.
func (r Runner) Sweep(scheme config.Scheme, w Workload, points []core.CrashPoint) (SweepResult, error) {
	res, err := r.SweepAll(context.Background(), []config.Scheme{scheme}, w, points, 0, nil)
	if err != nil {
		return SweepResult{Scheme: scheme}, err
	}
	return res[0], nil
}

// SweepAll runs RunOnce for every (scheme, point) pair on at most
// workers goroutines (0 means GOMAXPROCS) and aggregates per scheme, in
// scheme order. Each pair builds a fresh controller, so the order they
// run in cannot affect the outcome. onCell, when non-nil, is told of
// each finished pair, one call at a time.
func (r Runner) SweepAll(ctx context.Context, schemes []config.Scheme, w Workload, points []core.CrashPoint,
	workers int, onCell func(done, total int, s config.Scheme, err error)) ([]SweepResult, error) {
	type cell struct{ si, pi int }
	var cells []cell
	for si := range schemes {
		for pi := range points {
			cells = append(cells, cell{si, pi})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("crash: empty sweep")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cells))

	type outcome struct {
		rep Report
		err error
	}
	outcomes := make([]outcome, len(cells))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	idx := make(chan int)
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cells[i]
				rep, err := r.RunOnce(schemes[c.si], w, points[c.pi])
				outcomes[i] = outcome{rep, err}
				if onCell != nil {
					mu.Lock()
					done++
					onCell(done, len(cells), schemes[c.si], err)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // the feed may have stopped short
	}

	results := make([]SweepResult, len(schemes))
	for si, s := range schemes {
		results[si].Scheme = s
	}
	for i, c := range cells {
		if err := outcomes[i].err; err != nil {
			return nil, fmt.Errorf("crash: %v at %v: %w", schemes[c.si], points[c.pi], err)
		}
		results[c.si].Add(outcomes[i].rep)
	}
	return results, nil
}

// Add folds one injected crash into the tally; a point the workload
// never reached counts for nothing.
func (res *SweepResult) Add(rep Report) {
	if !rep.Fired {
		return
	}
	res.Fired++
	if rep.Consistent() {
		res.Consistent++
	} else {
		res.Failures = append(res.Failures, rep)
	}
}

// Verdict is the table cell: did every fired point recover consistently.
func (res SweepResult) Verdict() string {
	if res.Consistent < res.Fired {
		return "CORRUPTS"
	}
	return "CRASH CONSISTENT"
}
