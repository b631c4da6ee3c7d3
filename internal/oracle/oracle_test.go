package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
)

// TestOracleAllSchemes runs the differential oracle over every scheme ×
// workload × tree-height cell: value oracle against the plain map,
// structural invariants at deep-check boundaries, and the chi-square
// obliviousness probe. Short mode keeps 3 workloads at level 10; the
// full run adds level 12 and the remaining workloads. Every run also
// takes two small cells at L=6 over 128 blocks: 64 ops shaped like the
// 401.bzip2 and 429.mcf traces, where a stash overflow at the default
// sizing shows as an "overflow" violation.
func TestOracleAllSchemes(t *testing.T) {
	type cell struct {
		levels, ops int
		blocks      uint64
		w           Workload
	}
	levels := []int{10}
	names := []string{"uniform", "write-heavy", "hotspot"}
	if !testing.Short() {
		levels = append(levels, 12)
		names = append(names, "read-mostly", "sequential")
	}
	var cells []cell
	for _, lv := range levels {
		for _, name := range names {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{lv, 96, 256, w})
		}
	}
	cells = append(cells,
		cell{6, 64, 128, Workload{Name: "401.bzip2", WriteRatio: 0.38, HotFraction: 0.10, HotBias: 0.8}},
		cell{6, 64, 128, Workload{Name: "429.mcf", WriteRatio: 0.25, HotFraction: 0.02, HotBias: 0.8}})
	bb := config.Default().BlockBytes
	for _, scheme := range config.Schemes() {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/L%d/%s", scheme, c.levels, c.w.Name), func(t *testing.T) {
				ops := GenOps(c.w, c.blocks, bb, c.ops, 1)
				rep, err := CheckScheme(Params{Scheme: scheme, NumBlocks: c.blocks, Levels: c.levels, Seed: 1}, ops, Options{})
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
	if !slices.ContainsFunc(rep.Violations, func(v Violation) bool { return v.Kind == "oblivious" }) {
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
// function of (workload, seed): a failing cell replays exactly.
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
	ct := tgt.(*coreTarget)
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

// TestCheckSchemeRefusesAStore: the reference starts from zero, so a
// rerun on a directory the first run left a store in must be refused,
// naming the directory, rather than report the recovered values as
// violations.
func TestCheckSchemeRefusesAStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	p := Params{Scheme: config.SchemePSORAM, NumBlocks: 64, Levels: 5, Seed: 1, StoreDir: dir}
	ops := GenOps(Workload{Name: "uniform"}, 64, config.Default().BlockBytes, 48, 1)
	rep, err := CheckScheme(p, ops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("first run: %v", rep.Violations)
	}
	rep, err = CheckScheme(p, ops, Options{})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("second run on %s = %v, %v; want an error naming the directory", dir, rep, err)
	}
}

// TestCheckSchemeClosesItsTarget: CheckScheme builds its target and
// closes it, so a check leaves no image region behind for the finalizer.
// Other tests' dropped images may be freed meanwhile, which only lowers
// the count.
func TestCheckSchemeClosesItsTarget(t *testing.T) {
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		ops := GenOps(Workload{Name: "uniform"}, 64, config.Default().BlockBytes, 32, 1)
		before := oram.LiveRegions()
		rep, err := CheckScheme(Params{Scheme: scheme, NumBlocks: 64, Levels: 5, Seed: 1}, ops, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%v: %v", scheme, rep.Violations)
		}
		if grew := oram.LiveRegions() - before; grew > 0 {
			t.Errorf("%v: CheckScheme left %d image regions open", scheme, grew)
		}
	}
}
