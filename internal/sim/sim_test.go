package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// testWorkload is a mid-MPKI, mid-locality workload for quick runs.
func testWorkload() trace.Workload {
	w, err := trace.ByName("464.h264ref")
	if err != nil {
		panic(err)
	}
	return w
}

func run(t *testing.T, scheme config.Scheme, channels int, n int) Result {
	t.Helper()
	cfg := config.Default()
	cfg.Channels = channels
	res, err := Simulate(context.Background(), Request{Scheme: scheme, Config: cfg, Workload: testWorkload(), N: n, Levels: 12})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchemeOrderingFigure5a(t *testing.T) {
	const n = 1200
	base := run(t, config.SchemeBaseline, 1, n)
	full := run(t, config.SchemeFullNVM, 1, n)
	stt := run(t, config.SchemeFullNVMSTT, 1, n)
	naive := run(t, config.SchemeNaivePSORAM, 1, n)
	ps := run(t, config.SchemePSORAM, 1, n)

	if base.Cycles == 0 {
		t.Fatal("baseline ran no cycles")
	}
	// The paper's ordering: Baseline < PS-ORAM << Naive < FullNVM, with
	// FullNVM(STT) between Baseline and FullNVM.
	if !(ps.Cycles > base.Cycles) {
		t.Errorf("PS-ORAM (%d) should cost slightly more than Baseline (%d)", ps.Cycles, base.Cycles)
	}
	if !(naive.Cycles > ps.Cycles) {
		t.Errorf("Naive (%d) should exceed PS-ORAM (%d)", naive.Cycles, ps.Cycles)
	}
	if !(full.Cycles > naive.Cycles/2) || !(full.Cycles > base.Cycles) {
		t.Errorf("FullNVM (%d) should be far above Baseline (%d)", full.Cycles, base.Cycles)
	}
	if !(stt.Cycles > base.Cycles && stt.Cycles < full.Cycles) {
		t.Errorf("FullNVM(STT) (%d) should sit between Baseline (%d) and FullNVM (%d)",
			stt.Cycles, base.Cycles, full.Cycles)
	}
	// PS-ORAM's overhead should be small (paper: ~4.29%); accept <20%
	// at this reduced scale.
	if sd := ps.Slowdown(base); sd > 1.20 {
		t.Errorf("PS-ORAM slowdown %.3f too large", sd)
	}
}

func TestRecursiveOrderingFigure5b(t *testing.T) {
	const n = 800
	base := run(t, config.SchemeBaseline, 1, n)
	rcr := run(t, config.SchemeRcrBaseline, 1, n)
	rcrPS := run(t, config.SchemeRcrPSORAM, 1, n)
	if !(rcr.Cycles > base.Cycles) {
		t.Errorf("Rcr-Baseline (%d) should exceed Baseline (%d)", rcr.Cycles, base.Cycles)
	}
	if !(rcrPS.Cycles > rcr.Cycles) {
		t.Errorf("Rcr-PS-ORAM (%d) should exceed Rcr-Baseline (%d)", rcrPS.Cycles, rcr.Cycles)
	}
	// The Rcr-PS overhead over Rcr-Baseline should be modest (paper:
	// ~3.65%); accept <25% at this scale.
	if sd := rcrPS.Slowdown(rcr); sd > 1.25 {
		t.Errorf("Rcr-PS-ORAM slowdown over Rcr-Baseline %.3f too large", sd)
	}
}

func TestReadTrafficFigure6a(t *testing.T) {
	const n = 800
	base := run(t, config.SchemeBaseline, 1, n)
	ps := run(t, config.SchemePSORAM, 1, n)
	rcr := run(t, config.SchemeRcrBaseline, 1, n)
	// Non-recursive schemes read the same paths as Baseline.
	ratio := float64(ps.Reads) / float64(base.Reads)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("PS-ORAM read traffic ratio %.3f, want ~1.0", ratio)
	}
	// Recursive reads grow substantially (paper: ~+90%).
	rr := float64(rcr.Reads) / float64(base.Reads)
	if rr < 1.4 || rr > 2.6 {
		t.Errorf("Rcr-Baseline read ratio %.3f, want roughly 1.9", rr)
	}
}

func TestWriteTrafficFigure6b(t *testing.T) {
	const n = 800
	base := run(t, config.SchemeBaseline, 1, n)
	ps := run(t, config.SchemePSORAM, 1, n)
	naive := run(t, config.SchemeNaivePSORAM, 1, n)
	full := run(t, config.SchemeFullNVM, 1, n)
	psr := float64(ps.Writes) / float64(base.Writes)
	if psr < 1.0 || psr > 1.15 {
		t.Errorf("PS-ORAM write ratio %.3f, want ~1.05 (paper: +4.84%%)", psr)
	}
	nvr := float64(naive.Writes) / float64(base.Writes)
	if nvr < 1.6 || nvr > 2.4 {
		t.Errorf("Naive write ratio %.3f, want ~2.0 (paper: +100%%)", nvr)
	}
	fr := float64(full.Writes) / float64(base.Writes)
	if fr < 1.3 || fr > 2.6 {
		t.Errorf("FullNVM write ratio %.3f, want ~2.1 (paper: +111%%)", fr)
	}
}

func TestMultiChannelFigure7(t *testing.T) {
	const n = 800
	one := run(t, config.SchemePSORAM, 1, n)
	two := run(t, config.SchemePSORAM, 2, n)
	four := run(t, config.SchemePSORAM, 4, n)
	if !(two.Cycles < one.Cycles) {
		t.Errorf("2-channel (%d) should beat 1-channel (%d)", two.Cycles, one.Cycles)
	}
	if !(four.Cycles <= two.Cycles) {
		t.Errorf("4-channel (%d) should not be slower than 2-channel (%d)", four.Cycles, two.Cycles)
	}
	// Sub-linear scaling: 4 channels must NOT be 4x faster.
	if sp := float64(one.Cycles) / float64(four.Cycles); sp > 3.5 {
		t.Errorf("4-channel speedup %.2f implausibly linear", sp)
	}
}

func TestORAMCostVsNonORAM(t *testing.T) {
	const n = 800
	non := run(t, config.SchemeNonORAM, 1, n)
	base := run(t, config.SchemeBaseline, 1, n)
	ratio := float64(base.Cycles) / float64(non.Cycles)
	// Paper §5.1: 2x-24x, average ~11x on one channel.
	if ratio < 2 || ratio > 40 {
		t.Errorf("ORAM cost ratio %.1fx outside the plausible band (paper: ~11x avg)", ratio)
	}
}

func TestDirtyEntriesSmall(t *testing.T) {
	const n = 800
	ps := run(t, config.SchemePSORAM, 1, n)
	perAccess := float64(ps.DirtyEntries) / float64(ps.Accesses)
	// Steady state: one remap in, one entry merged out.
	if perAccess < 0.5 || perAccess > 2.5 {
		t.Errorf("PS-ORAM dirty entries per access = %.2f, want ~1", perAccess)
	}
	naive := run(t, config.SchemeNaivePSORAM, 1, n)
	if naive.DirtyEntries < ps.DirtyEntries*10 {
		t.Errorf("Naive entries (%d) should dwarf PS (%d)", naive.DirtyEntries, ps.DirtyEntries)
	}
}

func TestPendingBounded(t *testing.T) {
	ps := run(t, config.SchemePSORAM, 1, 2000)
	if ps.PendingPeak > config.Default().TempPosMapSize {
		t.Errorf("pending peak %d exceeds C_TPos=%d", ps.PendingPeak, config.Default().TempPosMapSize)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := run(t, config.SchemePSORAM, 1, 300)
	b := run(t, config.SchemePSORAM, 1, 300)
	if a.Cycles != b.Cycles || a.Writes != b.Writes {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(config.SchemePSORAM, config.Default(), 2); err == nil {
		t.Error("tiny tree accepted")
	}
	bad := config.Default()
	bad.Channels = 3
	if _, err := NewSystem(config.SchemePSORAM, bad, 12); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTreeTopCacheExtension(t *testing.T) {
	w := testWorkload()
	run := func(levels int) Result {
		cfg := config.Default()
		cfg.TreeTopCacheLevels = levels
		res, err := Simulate(context.Background(), Request{Scheme: config.SchemePSORAM, Config: cfg, Workload: w, N: 600, Levels: 12})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(0)
	on := run(6)
	if on.DRAMReads == 0 {
		t.Fatal("tree-top cache reported no DRAM hits")
	}
	if off.DRAMReads != 0 {
		t.Fatal("disabled cache reported DRAM hits")
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("tree-top cache (%d cycles) should beat plain NVM (%d)", on.Cycles, off.Cycles)
	}
	if on.Reads >= off.Reads {
		t.Errorf("tree-top cache should cut NVM read traffic: %d vs %d", on.Reads, off.Reads)
	}
	// Writes are write-through: unchanged.
	if on.Writes != off.Writes {
		t.Errorf("write-through cache changed write traffic: %d vs %d", on.Writes, off.Writes)
	}
}

func TestChainWorkOnlyForRecursive(t *testing.T) {
	ps := run(t, config.SchemePSORAM, 1, 200)
	if ps.ChainBlocks != 0 {
		t.Error("non-recursive scheme reported chain work")
	}
	rcr := run(t, config.SchemeRcrBaseline, 1, 200)
	if rcr.ChainBlocks == 0 {
		t.Error("recursive scheme reported no chain work")
	}
}

func TestRunThroughCaches(t *testing.T) {
	cfg := config.Default()
	w := testWorkload()
	res, err := Simulate(context.Background(), Request{Scheme: config.SchemePSORAM, Config: cfg, Workload: w, N: 30000, Levels: 10, ThroughCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 {
		t.Fatal("the cache hierarchy filtered every reference; no ORAM access happened")
	}
	// Misses must be a small fraction of references (the caches work).
	if float64(res.Accesses) > 0.5*30000 {
		t.Fatalf("%d LLC misses from 30000 references: caches ineffective", res.Accesses)
	}
	if res.Cycles <= res.Instrs {
		t.Fatal("no memory stall time accumulated")
	}
	// High-locality workloads must miss less than streaming ones.
	gcc, _ := trace.ByName("403.gcc")
	lbm, _ := trace.ByName("470.lbm")
	rg, err := Simulate(context.Background(), Request{Scheme: config.SchemeBaseline, Config: cfg, Workload: gcc, N: 20000, Levels: 10, ThroughCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Simulate(context.Background(), Request{Scheme: config.SchemeBaseline, Config: cfg, Workload: lbm, N: 20000, Levels: 10, ThroughCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	if rg.Accesses >= rl.Accesses {
		t.Fatalf("gcc (%d misses) should miss less than lbm (%d)", rg.Accesses, rl.Accesses)
	}
}
