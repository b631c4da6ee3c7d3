package crash

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
)

func runner() Runner {
	cfg := config.Default()
	cfg.StashEntries = 150
	cfg.TempPosMapSize = 16
	cfg.WriteBufferEntries = 16
	cfg.OnChipPosMapBytes = 4 * 64 * 8
	return Runner{Cfg: cfg, Blocks: 80, Levels: 5}
}

func workload() Workload {
	return Workload{NumBlocks: 80, Accesses: 60, Seed: 11, WriteRatio: 0.5}
}

// The headline result: PS-ORAM (and its variants) recover a consistent
// state from every crash point.
func TestPSORAMCrashConsistentEverywhere(t *testing.T) {
	r := runner()
	for _, scheme := range []config.Scheme{
		config.SchemePSORAM,
		config.SchemeNaivePSORAM,
		config.SchemeEADRORAM,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := r.Sweep(scheme, workload(), SweepPoints(60, 5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fired == 0 {
				t.Fatal("no crash point fired; sweep is vacuous")
			}
			if len(res.Failures) > 0 {
				t.Fatalf("%d/%d crash points inconsistent; first: %v",
					len(res.Failures), res.Fired, res.Failures[0])
			}
		})
	}
}

func TestRcrPSORAMCrashConsistent(t *testing.T) {
	r := runner()
	w := workload()
	w.Accesses = 40
	res, err := r.Sweep(config.SchemeRcrPSORAM, w, SweepPoints(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == 0 {
		t.Fatal("no crash point fired")
	}
	if len(res.Failures) > 0 {
		t.Fatalf("%d/%d crash points inconsistent; first: %v",
			len(res.Failures), res.Fired, res.Failures[0])
	}
}

// The motivation: the baselines corrupt state somewhere in the sweep
// (paper §3.3 case studies). If they never failed, our checker would be
// vacuous.
func TestBaselinesFailSomewhere(t *testing.T) {
	r := runner()
	for _, scheme := range []config.Scheme{
		config.SchemeBaseline,
		config.SchemeFullNVM,
		config.SchemeRcrBaseline,
	} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			res, err := r.Sweep(scheme, workload(), SweepPoints(60, 5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fired == 0 {
				t.Fatal("no crash point fired")
			}
			if len(res.Failures) == 0 {
				t.Fatalf("%v recovered consistently from all %d crash points; expected corruption", scheme, res.Fired)
			}
		})
	}
}

// PS-ORAM with tiny WPQs (the ordered multi-batch eviction) must still
// recover from crashes at batch boundaries.
func TestPSORAMSmallWPQCrashConsistent(t *testing.T) {
	r := runner()
	r.Cfg.DataWPQEntries = 4
	r.Cfg.PosMapWPQEntries = 4
	res, err := r.Sweep(config.SchemePSORAM, workload(), SweepPoints(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == 0 {
		t.Fatal("no crash point fired")
	}
	if len(res.Failures) > 0 {
		t.Fatalf("%d/%d crash points inconsistent with small WPQ; first: %v",
			len(res.Failures), res.Fired, res.Failures[0])
	}
}

func TestReportPlumbing(t *testing.T) {
	r := runner()
	rep, err := r.RunOnce(config.SchemePSORAM, workload(), core.CrashPoint{Access: 5, Step: 4, Sub: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fired {
		t.Fatal("point should have fired")
	}
	if rep.OpsStarted != 5 {
		t.Fatalf("OpsStarted = %d, want 5", rep.OpsStarted)
	}
	if !rep.Consistent() {
		t.Fatalf("PS-ORAM inconsistent at step 4: %v", rep)
	}
}

func TestUnreachedPointNotFired(t *testing.T) {
	r := runner()
	rep, err := r.RunOnce(config.SchemePSORAM, workload(), core.CrashPoint{Access: 10000, Step: 2, Sub: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired {
		t.Fatal("point beyond the workload cannot fire")
	}
	if rep.Consistent() {
		t.Fatal("non-fired reports must not count as consistent")
	}
}

// TestSweepPointsDistinct: short workloads must not repeat an access
// (n/3 == n/2 == 0 at n < 3) or index one past the end (n-2 < 0).
func TestSweepPointsDistinct(t *testing.T) {
	for _, n := range []int{-5, 0, 1, 2, 3, 4, 5, 50} {
		pts := SweepPoints(n, 5)
		seen := make(map[core.CrashPoint]bool)
		for _, p := range pts {
			if seen[p] {
				t.Errorf("SweepPoints(%d): %v repeated", n, p)
			}
			seen[p] = true
			if p.Access >= uint64(max(n, 0)) {
				t.Errorf("SweepPoints(%d): %v is past the workload", n, p)
			}
		}
		if n > 0 && len(pts) == 0 {
			t.Errorf("SweepPoints(%d) is empty", n)
		}
	}
}

// TestVacuousSweepIsAnError: a scheme row with no fired point is an
// error, not a CRASH CONSISTENT verdict.
func TestVacuousSweepIsAnError(t *testing.T) {
	r := runner()
	w := workload()
	w.Accesses = 3
	if res, err := r.Sweep(config.SchemePSORAM, w, []core.CrashPoint{{Access: 10, Step: 2, Sub: -1}}); err == nil {
		t.Fatalf("no point fired, yet the sweep returned %+v", res)
	}
	for _, n := range []int{0, -5} {
		r, w, pts := Matrix(n, 11)
		if res, err := r.Sweep(config.SchemePSORAM, w, pts); err == nil {
			t.Errorf("Matrix(%d): vacuous sweep returned %+v", n, res)
		}
	}
}

// TestSweepAllWorkersAgree runs a reduced published matrix on one and
// on four workers: the rows must be identical, PS-ORAM consistent at
// every point and Baseline not.
func TestSweepAllWorkersAgree(t *testing.T) {
	r, w, pts := Matrix(50, 11)
	schemes := []config.Scheme{config.SchemePSORAM, config.SchemeBaseline}
	serial, err := r.SweepAll(context.Background(), schemes, w, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := r.SweepAll(context.Background(), schemes, w, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("1 worker %+v, 4 workers %+v", serial, parallel)
	}
	if ps := parallel[0]; ps.Verdict() != "CRASH CONSISTENT" || ps.Consistent != len(pts) {
		t.Errorf("PS-ORAM: %d/%d consistent, %s", ps.Consistent, ps.Fired, ps.Verdict())
	}
	if base := parallel[1]; base.Verdict() != "CORRUPTS" {
		t.Errorf("Baseline: %d/%d consistent, %s", base.Consistent, base.Fired, base.Verdict())
	}
}

// TestCommitBoundaries: over the five published matrix seeds, a write
// crashed at a given step recovers to exactly the prefix the scheme's
// commit point names — prefix i before it, prefix i+1 after it. The
// PS-ORAM family commits in step 5's atomic batch, so steps 2-5 give i
// and step 6 gives i+1; eADR-ORAM's drain makes the step-4 stash update
// the commit, so steps 2-3 give i and steps 4 and 6 give i+1.
func TestCommitBoundaries(t *testing.T) {
	committedBy := map[config.Scheme]int{ // the first step that commits the in-flight write
		config.SchemePSORAM:      6,
		config.SchemeNaivePSORAM: 6,
		config.SchemeRcrPSORAM:   6,
		config.SchemeEADRORAM:    4,
	}
	for s, commit := range committedBy {
		t.Run(s.String(), func(t *testing.T) {
			seen := make(map[bool]int) // committed -> write crashes checked
			for seed := uint64(11); seed <= 15; seed++ {
				r, w, pts := Matrix(50, seed)
				ops := w.Ops(r.Cfg.BlockBytes)
				for _, p := range pts {
					trial, err := r.RunOnce(s, w, p)
					if err != nil {
						t.Fatal(err)
					}
					if !trial.Fired || !ops[trial.OpsStarted].Write {
						continue
					}
					i, committed := trial.OpsStarted, p.Step >= commit
					want, not := i, i+1
					if committed {
						want, not = i+1, i
					}
					if !slices.Contains(trial.Matched, want) || slices.Contains(trial.Matched, not) {
						t.Errorf("seed %d %v: write %d recovered prefixes %v, want exactly %d", seed, p, i, trial.Matched, want)
					}
					seen[committed]++
				}
			}
			if seen[false] == 0 || seen[true] == 0 {
				t.Fatalf("vacuous: %d uncommitted and %d committed write crashes", seen[false], seen[true])
			}
		})
	}
}

// TestFullNVMPrefixRecoveryCounts is the point the old per-address
// durability oracle misjudged: FullNVM crashed at seed 11, access 48,
// step 4 recovers exactly prefix 49 — the in-flight write landed whole —
// and so counts as consistent.
func TestFullNVMPrefixRecoveryCounts(t *testing.T) {
	r, w, _ := Matrix(50, 11)
	trial, err := r.RunOnce(config.SchemeFullNVM, w, core.CrashPoint{Access: 48, Step: 4, Sub: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !trial.Fired || trial.OpsStarted != 48 || !slices.Contains(trial.Matched, 49) || !trial.Consistent() {
		t.Fatalf("%v (matched %v), want prefix 49 and consistent", trial, trial.Matched)
	}
}

// TestRcrBaselineUnreachablePosMapBlockIsCorruption pins how recovery
// treats a PosMap block it cannot reach: as corruption, which the
// read-back surfaces, not as an error. Rcr-Baseline's Top-map updates are
// volatile, so a crash in access 0 of the matrix's seed-11 stream (step
// 4, the target's only copy in the lost stash) recovers the top PosMap
// tree's old leaves. The block that access moved, holding the leaves of
// addresses 16-31, is then unreachable: Recover counts the 16 entries it
// could not re-derive and returns nil, and the one address the
// read-back cannot find lies among them.
func TestRcrBaselineUnreachablePosMapBlockIsCorruption(t *testing.T) {
	r, w, _ := Matrix(50, 11)
	ctl, err := core.New(config.SchemeRcrBaseline, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	var unrecoverable int64
	var affected []uint64
	inspect := func(c *core.Controller) {
		unrecoverable = c.Counters().Get("crash.unrecoverable_posmap_blocks")
		k := uint64(c.Rec.EntriesPerBlock)
		for a := uint64(0); a < c.ORAM.NumBlocks(); a++ {
			if _, err := c.Rec.Levels[0].Peek(oram.Addr(a / k)); err != nil {
				affected = append(affected, a)
			}
		}
	}
	trial, err := oracle.RunTrial(ctl, w.Ops(r.Cfg.BlockBytes), core.CrashPoint{Access: 0, Step: 4, Sub: -1}, inspect)
	if err != nil {
		t.Fatalf("recovery over an unreachable PosMap block failed: %v", err)
	}
	if !trial.Fired || len(ctl.Rec.Levels) != 1 {
		t.Fatalf("%v over %d PosMap trees; want a fired point over one", trial, len(ctl.Rec.Levels))
	}
	if unrecoverable != 16 || len(affected) != 16 || affected[0] != 16 || affected[15] != 31 {
		t.Fatalf("crash.unrecoverable_posmap_blocks = %d, unreachable entries %v; want the 16 of addresses 16-31", unrecoverable, affected)
	}
	if !slices.Equal(trial.Unreadable, []uint64{31}) || trial.Consistent() {
		t.Fatalf("%v (unreadable %v); want address 31 unreadable and the point inconsistent", trial, trial.Unreadable)
	}
	for _, a := range trial.Unreadable {
		if !slices.Contains(affected, a) {
			t.Errorf("address %d unreadable, but its PosMap block was recovered", a)
		}
	}
}

// TestMatrixTrialCatchesSabotage is the mutation test through the
// matrix's path (a timed controller from Matrix's config, the LCG op
// stream): a recovered stash block whose payload the history never wrote
// must fail the prefix rule and show as fabricated.
func TestMatrixTrialCatchesSabotage(t *testing.T) {
	r, w, _ := Matrix(50, 11)
	garbage := bytes.Repeat([]byte{0xa5}, r.Cfg.BlockBytes)
	for _, s := range []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM} {
		ctl, err := core.New(s, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
		if err != nil {
			t.Fatal(err)
		}
		sabotage := func(ctl *core.Controller) {
			leaf, ok := ctl.Temp.Lookup(0)
			if !ok {
				leaf = ctl.ORAM.PosMap.Lookup(0)
			}
			ctl.ORAM.Stash.Put(&oram.StashBlock{Addr: 0, Leaf: leaf, Data: append([]byte(nil), garbage...)})
		}
		trial, err := oracle.RunTrial(ctl, w.Ops(r.Cfg.BlockBytes), core.CrashPoint{Access: 1, Step: 6, Sub: -1}, sabotage)
		if err != nil {
			t.Fatal(err)
		}
		if trial.Consistent() || !slices.Contains(trial.Fabricated, 0) {
			t.Errorf("%v: sabotaged recovery slipped past the matrix check: %v", s, trial)
		}
	}
}

// TestBackupCrashWindow crashes PS-ORAM in a pinned write, at every
// step-5 sub-point (the batch is filling the WPQs) and at step 6 (the
// batch has committed), recovers, and holds each read-back to the exact
// prefix: the write is lost whole before the commit and durable whole
// after it. Access 22 of the matrix's seed-11 stream rewrites address 7
// and its backup is elided, because the block's remap merges in the
// same batch: the merged live copy is then its durable copy, so the
// backup that was never written is never missed. Access 9 of the seed-4
// stream writes address 69, which stays pending, so its backup is
// written and is the write's only durable copy.
func TestBackupCrashWindow(t *testing.T) {
	for _, pin := range []struct {
		seed   uint64
		access uint64
		elided bool
	}{{11, 22, true}, {4, 9, false}} {
		r, w, _ := Matrix(50, pin.seed)
		ops := w.Ops(r.Cfg.BlockBytes)
		build := func() *core.Controller {
			ctl, err := core.New(config.SchemePSORAM, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
			if err != nil {
				t.Fatal(err)
			}
			return ctl
		}
		// The probe keeps the pin honest: the access is a write that
		// makes a backup and elides it or not, and its batch offers a
		// step-5 point per slot of the path.
		probe := build()
		var backups, elided [2]int64
		subs := 0
		probe.CrashAt = func(p core.CrashPoint) bool {
			if p.Access == pin.access {
				k := -1
				switch p.Step {
				case 2:
					k = 0
				case 5:
					subs++
				case 6:
					k = 1
				}
				if k >= 0 {
					backups[k] = probe.Counters().Get("psoram.backups")
					elided[k] = probe.Counters().Get("psoram.backups_elided")
				}
			}
			return false
		}
		_, err := oracle.Drive(probe, ops)
		probe.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !ops[pin.access].Write || backups[1] == backups[0] || (elided[1] > elided[0]) != pin.elided {
			t.Fatalf("seed %d access %d: write %v, %d backups, %d elided; want a write whose backup is elided=%v: the pin has lost its subject",
				pin.seed, pin.access, ops[pin.access].Write, backups[1]-backups[0], elided[1]-elided[0], pin.elided)
		}
		if want := (r.Levels + 1) * r.Cfg.Z; subs != want {
			t.Fatalf("seed %d access %d offers %d step-5 points, want one per path slot (%d)", pin.seed, pin.access, subs, want)
		}
		points := []core.CrashPoint{{Access: pin.access, Step: 6, Sub: -1}}
		for sub := 0; sub < subs; sub++ {
			points = append(points, core.CrashPoint{Access: pin.access, Step: 5, Sub: sub})
		}
		for _, at := range points {
			ctl := build()
			trial, err := oracle.RunTrial(ctl, ops, at, nil)
			ctl.Close()
			if err != nil {
				t.Fatal(err)
			}
			want, not := int(pin.access)+1, int(pin.access)
			if at.Step == 5 {
				want, not = not, want
			}
			if !trial.Consistent() || !slices.Contains(trial.Matched, want) || slices.Contains(trial.Matched, not) {
				t.Errorf("seed %d: %v; want prefix %d, not %d", pin.seed, trial, want, not)
			}
		}
	}
}
