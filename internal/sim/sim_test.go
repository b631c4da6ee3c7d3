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
