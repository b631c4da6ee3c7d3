package oracle_test

// The crash-linearizability torture runs through crash.Check; these
// tests keep their names here, in an external test package, which may
// import the crash package that imports oracle.

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// TestOracleCrashLinearizability tortures every persistent scheme at
// every declared crash step: the recovered store must equal the
// reference replay at the in-flight op boundary (k = i or i+1), and
// every declared step must actually fire.
func TestOracleCrashLinearizability(t *testing.T) {
	bb := config.Default().BlockBytes
	for _, scheme := range config.Schemes() {
		if !scheme.Policy().Persistent() {
			continue
		}
		t.Run(scheme.String(), func(t *testing.T) {
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, 64, bb, 48, 7)
			rep, err := crash.Check(oracle.Params{Scheme: scheme, NumBlocks: 64, Levels: 6, Seed: 7}, ops, crash.CheckOptions{})
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
	ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, 64, bb, 48, 7)
	rep, err := crash.Check(oracle.Params{Scheme: config.SchemeBaseline, NumBlocks: 64, Levels: 6, Seed: 7}, ops,
		crash.CheckOptions{Steps: []int{3, 6}})
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
	sabotage := func(ctl *core.Controller) {
		leaf, ok := ctl.Temp.Lookup(0)
		if !ok {
			leaf = ctl.ORAM.PosMap.Lookup(0)
		}
		ctl.ORAM.Stash.Put(&oram.StashBlock{Addr: 0, Leaf: leaf, Data: append([]byte(nil), garbage...)})
	}
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		t.Run(scheme.String(), func(t *testing.T) {
			ops := oracle.GenOps(oracle.Workload{Name: "uniform"}, 64, bb, 48, 7)
			rep, err := crash.Check(oracle.Params{Scheme: scheme, NumBlocks: 64, Levels: 6, Seed: 7}, ops,
				crash.CheckOptions{Steps: []int{6}, AccessIndices: []uint64{1}, PostRecover: sabotage})
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
