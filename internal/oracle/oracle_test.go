package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

// TestOracleAllSchemes runs the differential oracle over every scheme ×
// workload × tree-height cell: value oracle against the plain map,
// structural invariants at deep-check boundaries, and the chi-square
// obliviousness probe. Short mode keeps 3 workloads at level 10; the
// full run adds level 12 and the remaining workloads.
func TestOracleAllSchemes(t *testing.T) {
	levels := []int{10}
	names := []string{"uniform", "write-heavy", "hotspot"}
	if !testing.Short() {
		levels = append(levels, 12)
		names = append(names, "read-mostly", "sequential")
	}
	const blocks, nOps = 256, 96
	bb := config.Default().BlockBytes
	for _, scheme := range config.Schemes() {
		for _, lv := range levels {
			for _, name := range names {
				t.Run(fmt.Sprintf("%s/L%d/%s", scheme, lv, name), func(t *testing.T) {
					w, err := ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					ops := GenOps(w, blocks, bb, nOps, 1)
					rep, err := CheckScheme(Params{Scheme: scheme, NumBlocks: blocks, Levels: lv, Seed: 1}, ops, Options{})
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range rep.Violations {
						t.Errorf("%s", v)
					}
					if rep.DeepChecks == 0 {
						t.Error("no deep checks ran")
					}
					if scheme == config.SchemeNonORAM {
						if !rep.Chi2Skipped {
							t.Error("NonORAM has no tree; the obliviousness probe should be skipped")
						}
					} else if rep.Chi2Skipped {
						t.Error("obliviousness probe unexpectedly skipped")
					}
				})
			}
		}
	}
}

// TestOracleCrashLinearizability tortures every persistent scheme at
// every declared crash step: the recovered store must equal the
// reference replay at the in-flight op boundary (k = i or i+1), and
// every declared step must actually fire.
func TestOracleCrashLinearizability(t *testing.T) {
	bb := config.Default().BlockBytes
	for _, scheme := range config.Schemes() {
		if !scheme.Persistent() {
			continue
		}
		t.Run(scheme.String(), func(t *testing.T) {
			ops := GenOps(Workload{Name: "uniform"}, 64, bb, 48, 7)
			rep, err := CheckCrash(Params{Scheme: scheme, NumBlocks: 64, Levels: 6, Seed: 7}, ops, CrashOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			for _, step := range core.DeclaredStepsFor(scheme) {
				if rep.StepsFired[step] == 0 {
					t.Errorf("declared step %d never fired", step)
				}
			}
			if len(rep.Trials) == 0 {
				t.Fatal("no trials ran")
			}
		})
	}
}

// TestOracleBaselineCrashWeakCheck exercises the non-persistent branch:
// the baselines promise only that recovery never fabricates bytes, and
// the harness's weak per-address check must accept them.
func TestOracleBaselineCrashWeakCheck(t *testing.T) {
	bb := config.Default().BlockBytes
	ops := GenOps(Workload{Name: "uniform"}, 64, bb, 48, 7)
	rep, err := CheckCrash(Params{Scheme: config.SchemeBaseline, NumBlocks: 64, Levels: 6, Seed: 7}, ops,
		CrashOptions{Steps: []int{3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
}

// TestOracleMutationCaught is the harness's own mutation test: sabotage
// the recovered state (a stash block whose payload matches no value the
// history ever wrote) and the linearizability check must object. A
// torture harness that cannot catch a planted bug proves nothing.
func TestOracleMutationCaught(t *testing.T) {
	bb := config.Default().BlockBytes
	garbage := bytes.Repeat([]byte{0xa5}, bb)
	sabotage := func(tg Target) {
		switch c := tg.(type) {
		case *coreTarget:
			c.ctl.ORAM.Stash.Put(&oram.StashBlock{Addr: 0, Leaf: c.currentLeaf(0), Data: append([]byte(nil), garbage...)})
		default:
			t.Fatalf("unexpected target type %T", tg)
		}
	}
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			ops := GenOps(Workload{Name: "uniform"}, 64, bb, 48, 7)
			rep, err := CheckCrash(Params{Scheme: scheme, NumBlocks: 64, Levels: 6, Seed: 7}, ops,
				CrashOptions{Steps: []int{6}, AccessIndices: []uint64{1}, PostRecover: sabotage})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() {
				t.Fatal("sabotaged recovery slipped past the linearizability check")
			}
			for _, v := range rep.Violations {
				if v.Kind != "crash" {
					t.Errorf("unexpected violation kind %q: %s", v.Kind, v)
				}
			}
		})
	}
}

// TestOracleChiSquareUniformity pins the probe's three regimes: a
// perfectly balanced sequence passes, a constant-leaf sequence fails
// spectacularly, and sequences too short for a valid approximation are
// skipped rather than judged.
func TestOracleChiSquareUniformity(t *testing.T) {
	const nLeaves = 1024
	balanced := make([]oram.Leaf, 160)
	for i := range balanced {
		balanced[i] = oram.Leaf((uint64(i) * nLeaves) / uint64(len(balanced)))
	}
	if _, p, _, ok := LeafUniformity(balanced, nLeaves); !ok || p < 1e-3 {
		t.Errorf("balanced sequence rejected: p=%g ok=%v", p, ok)
	}

	constant := make([]oram.Leaf, 160)
	if _, p, _, ok := LeafUniformity(constant, nLeaves); !ok || p > 1e-9 {
		t.Errorf("constant-leaf sequence not rejected: p=%g ok=%v", p, ok)
	}

	if _, _, _, ok := LeafUniformity(constant[:5], nLeaves); ok {
		t.Error("5-sample sequence should be skipped, not judged")
	}
	if _, _, _, ok := LeafUniformity(balanced, 1); ok {
		t.Error("single-leaf tree should be skipped")
	}
}

// TestOracleSkewCaughtEndToEnd plants a biased target (every access
// reports leaf 0) and the probe must flag it.
func TestOracleSkewCaughtEndToEnd(t *testing.T) {
	tg := &skewedTarget{n: 32, bb: 16, leaves: 1024}
	ops := GenOps(Workload{Name: "uniform"}, 32, 16, 96, 3)
	rep, err := Check(tg, ops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasKind("oblivious") {
		t.Fatalf("constant-leaf target not flagged; violations: %v", rep.Violations)
	}
}

// skewedTarget is functionally correct but reports a constant leaf.
type skewedTarget struct {
	n      uint64
	bb     int
	leaves uint64
	m      map[oram.Addr][]byte
}

func (t *skewedTarget) Scheme() config.Scheme { return config.SchemePSORAM }
func (t *skewedTarget) NumBlocks() uint64     { return t.n }
func (t *skewedTarget) BlockBytes() int       { return t.bb }
func (t *skewedTarget) Leaves() uint64        { return t.leaves }
func (t *skewedTarget) Invariants() []error   { return nil }

func (t *skewedTarget) Access(op oram.Op, addr oram.Addr, data []byte) ([]byte, oram.Leaf, error) {
	if t.m == nil {
		t.m = make(map[oram.Addr][]byte)
	}
	prev, _ := t.Peek(addr)
	if op == oram.OpWrite {
		t.m[addr] = append([]byte(nil), data...)
	}
	return prev, 0, nil
}

func (t *skewedTarget) Peek(addr oram.Addr) ([]byte, error) {
	if v, ok := t.m[addr]; ok {
		return append([]byte(nil), v...), nil
	}
	return make([]byte, t.bb), nil
}

// TestOracleRecursiveDepth forces the Rcr hierarchy past the on-chip
// cutoff (1024 entries at the default config) so the oracle exercises a
// real recursion level, not the degenerate flat fallback.
func TestOracleRecursiveDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("recursion-depth run is slow; skipped in -short")
	}
	const blocks = 1500
	bb := config.Default().BlockBytes
	tg, err := NewTarget(Params{Scheme: config.SchemeRcrPSORAM, NumBlocks: blocks, Levels: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := tg.(*coreTarget)
	if !ok {
		t.Fatalf("unexpected target type %T", tg)
	}
	if ct.ctl.Rec == nil || len(ct.ctl.Rec.Levels) < 1 {
		t.Fatalf("expected at least one recursion level for %d blocks", blocks)
	}
	ops := GenOps(Workload{Name: "uniform"}, blocks, bb, 64, 5)
	rep, err := Check(tg, ops, Options{DeepEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
}

// TestOracleStashOverflowTyped drives a Baseline controller into a
// hopelessly crowded stash and asserts the typed error is reachable
// through errors.Is across the wrap chain.
func TestOracleStashOverflowTyped(t *testing.T) {
	const bb = 32
	cfg := config.Default()
	cfg.BlockBytes, cfg.StashEntries, cfg.Seed = bb, 25, 3
	ctl, err := core.New(config.SchemeBaseline, cfg, core.Options{NumBlocks: 50, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := ctl.ORAM
	// Crowd the stash with rescue backups all targeting leaf 0: a single
	// eviction path can absorb at most Z*(L+1)=20 of them, so the next
	// access must leave the stash over capacity and surface the typed
	// error through the wrap chain.
	for i := 0; i < 3*c.Tree.PathBlocks(); i++ {
		c.Stash.PutBackup(&oram.StashBlock{
			Addr: oram.Addr(uint64(i) % c.NumBlocks()), Backup: true, BackupLeaf: 0,
			Data: make([]byte, bb),
		})
	}
	_, err = ctl.Access(oram.OpRead, 0, nil)
	if err == nil {
		t.Fatal("access with a hopelessly crowded stash did not fail")
	}
	if !errors.Is(err, oram.ErrStashOverflow) {
		t.Fatalf("overflow error not typed: %v", err)
	}
}

// TestOracleGenOpsDeterministic pins that op generation is a pure
// function of (workload, seed) — the property the sweep's per-cell
// validator relies on.
func TestOracleGenOpsDeterministic(t *testing.T) {
	a := GenOps(Workload{Name: "hotspot", WriteRatio: 0.5, HotFraction: 0.125, HotBias: 0.8}, 64, 16, 50, 9)
	b := GenOps(Workload{Name: "hotspot", WriteRatio: 0.5, HotFraction: 0.125, HotBias: 0.8}, 64, 16, 50, 9)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Write != b[i].Write || a[i].Addr != b[i].Addr || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("op %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := GenOps(Workload{Name: "uniform"}, 64, 16, 50, 9)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Write != c[i].Write || a[i].Addr != c[i].Addr {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different workload names produced an identical stream — streams are not name-derived")
	}
}

// TestCoreTargetArmNilDisarms: a fired injector surfaces as core's own
// ErrCrashed, and Arm(nil) removes the injector, so the recovered
// target serves writes and reads again.
func TestCoreTargetArmNilDisarms(t *testing.T) {
	tgt, err := NewTarget(Params{Scheme: config.SchemePSORAM, NumBlocks: 64, Levels: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := tgt.(CrashTarget)
	v := bytes.Repeat([]byte{0x3c}, tgt.BlockBytes())
	ct.Arm(func(CrashSpec) bool { return true })
	if _, _, err := ct.Access(oram.OpWrite, 3, v); !errors.Is(err, ErrCrashed) || !errors.Is(err, core.ErrCrashed) {
		t.Fatalf("armed access = %v, want core.ErrCrashed", err)
	}
	if err := ct.Recover(); err != nil {
		t.Fatal(err)
	}
	ct.Arm(nil)
	if _, _, err := ct.Access(oram.OpWrite, 3, v); err != nil {
		t.Fatalf("write after disarm: %v", err)
	}
	got, _, err := ct.Access(oram.OpRead, 3, nil)
	if err != nil || !bytes.Equal(got, v) {
		t.Fatalf("read after disarm = %.8q, %v; want %.8q", got, err, v)
	}
}
