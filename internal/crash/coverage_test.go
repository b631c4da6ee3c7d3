package crash

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// observePoints runs the workload with a non-firing injector and
// returns how many times each protocol step was offered as a crash
// point: the coverage probe for the sweeps. A declared step that never
// appears here can never be crash-tested.
func observePoints(r Runner, scheme config.Scheme, w Workload) (map[int]int, error) {
	ctl, err := core.New(scheme, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	counts := make(map[int]int)
	ctl.CrashAt = func(p core.CrashPoint) bool {
		counts[p.Step]++
		return false
	}
	for _, op := range w.Ops(r.Cfg.BlockBytes) {
		kind := oram.OpRead
		if op.Write {
			kind = oram.OpWrite
		}
		if _, err := ctl.Access(kind, oram.Addr(op.Addr), op.Data); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// TestEveryDeclaredPointFires asserts the torture harness actually
// reaches every declared injection step at least once per scheme: a new
// protocol step added without a maybeCrash hook (or a scheme that skips
// one) would shrink crash coverage silently, and this is the tripwire.
func TestEveryDeclaredPointFires(t *testing.T) {
	r := runner()
	w := workload()
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeFullNVMSTT,
		config.SchemeNaivePSORAM, config.SchemePSORAM,
		config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
		config.SchemeEADRORAM,
	}
	for _, s := range schemes {
		counts, err := observePoints(r, s, w)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, step := range core.DeclaredStepsFor(s) {
			if counts[step] == 0 {
				t.Errorf("%v: declared crash step %d never offered over %d accesses (coverage hole)",
					s, step, w.Accesses)
			}
		}
		for step := range counts {
			declared := false
			for _, d := range core.DeclaredStepsFor(s) {
				if step == d {
					declared = true
				}
			}
			if !declared {
				t.Errorf("%v: undeclared crash step %d fired — add it to DeclaredStepsFor and the sweeps",
					s, step)
			}
		}
	}
}

// TestSweepPointsCoverDeclaredSteps checks the hand-picked sweep set
// itself touches every declared step, so the consistency sweeps in this
// package and report.CrashMatrix cannot drop a step by accident.
func TestSweepPointsCoverDeclaredSteps(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range SweepPoints(50, 5) {
		seen[p.Step] = true
	}
	for _, step := range core.DeclaredSteps() {
		if !seen[step] {
			t.Errorf("SweepPoints covers no point at declared step %d", step)
		}
	}
}

// TestObservePointsDeterministic pins the probe itself: identical
// workloads must offer identical point counts, or coverage assertions
// would flap.
func TestObservePointsDeterministic(t *testing.T) {
	r := runner()
	w := workload()
	a, err := observePoints(r, config.SchemePSORAM, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := observePoints(r, config.SchemePSORAM, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("probe nondeterministic: %v vs %v", a, b)
	}
	for step, n := range a {
		if b[step] != n {
			t.Fatalf("probe nondeterministic at step %d: %d vs %d", step, n, b[step])
		}
	}
}

// TestWriteBackOffersAPointPerSlot: the lazy single-batch write-back
// handles only the occupied slots of a path, but power can fail while
// any of the path's Z(L+1) slots is on its way into the WPQs. With an
// injector armed, step 5 must offer exactly that many sub-points per
// eviction, in slot order, and nothing else in between.
func TestWriteBackOffersAPointPerSlot(t *testing.T) {
	r := runner()
	w := workload()
	for _, s := range []config.Scheme{config.SchemePSORAM, config.SchemeNaivePSORAM} {
		ctl, err := core.New(s, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
		if err != nil {
			t.Fatal(err)
		}
		perEviction := ctl.ORAM.Tree.PathBlocks()
		if perEviction > min(r.Cfg.DataWPQEntries, r.Cfg.PosMapWPQEntries) {
			t.Fatalf("%v: a path does not fit one batch, so the single-batch write-back this test is about never runs", s)
		}
		next, evictions := 0, 0
		ctl.CrashAt = func(p core.CrashPoint) bool {
			switch {
			case p.Step != 5 && next != 0:
				t.Fatalf("%v: %v offered after %d of a write-back's %d sub-points", s, p, next, perEviction)
			case p.Step == 5 && p.Sub != next:
				t.Fatalf("%v: %v offered, want sub-point %d", s, p, next)
			case p.Step == 5:
				if next++; next == perEviction {
					next, evictions = 0, evictions+1
				}
			}
			return false
		}
		for i := 0; i < w.Accesses; i++ {
			addr := oram.Addr(i*7) % oram.Addr(w.NumBlocks)
			if _, err := ctl.Access(oram.OpWrite, addr, oracle.Value(uint64(addr), i, r.Cfg.BlockBytes)); err != nil {
				t.Fatalf("%v access %d: %v", s, i, err)
			}
		}
		if want := w.Accesses + int(ctl.Counters().Get("psoram.temp_drains")); next != 0 || evictions != want {
			t.Errorf("%v: %d complete write-backs offered (+%d sub-points), want %d", s, evictions, next, want)
		}
		counts, err := observePoints(r, s, w)
		if err != nil {
			t.Fatal(err)
		}
		if counts[5]%perEviction != 0 || counts[5] < w.Accesses*perEviction {
			t.Errorf("%v: observePoints saw %d step-5 points over %d accesses, want a multiple of %d", s, counts[5], w.Accesses, perEviction)
		}
	}
}
