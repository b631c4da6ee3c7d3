package crash

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

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
		counts, err := r.ObservePoints(s, w)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, step := range DeclaredStepsFor(s) {
			if counts[step] == 0 {
				t.Errorf("%v: declared crash step %d never offered over %d accesses (coverage hole)",
					s, step, w.Accesses)
			}
		}
		for step := range counts {
			declared := false
			for _, d := range DeclaredStepsFor(s) {
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
	for _, step := range DeclaredSteps() {
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
	a, err := r.ObservePoints(config.SchemePSORAM, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ObservePoints(config.SchemePSORAM, w)
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
		if !ctl.ORAM.Image.LazySeal() {
			t.Fatalf("%v: the controller does not run the lazy write-back this test is about", s)
		}
		perEviction := ctl.ORAM.Tree.PathBlocks()
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
			if _, err := ctl.Access(oram.OpWrite, addr, value(addr, i, r.Cfg.BlockBytes)); err != nil {
				t.Fatalf("%v access %d: %v", s, i, err)
			}
		}
		if want := w.Accesses + int(ctl.Counters().Get("psoram.temp_drains")); next != 0 || evictions != want {
			t.Errorf("%v: %d complete write-backs offered (+%d sub-points), want %d", s, evictions, next, want)
		}
		counts, err := r.ObservePoints(s, w)
		if err != nil {
			t.Fatal(err)
		}
		if counts[5]%perEviction != 0 || counts[5] < w.Accesses*perEviction {
			t.Errorf("%v: ObservePoints saw %d step-5 points over %d accesses, want a multiple of %d", s, counts[5], w.Accesses, perEviction)
		}
	}
}
