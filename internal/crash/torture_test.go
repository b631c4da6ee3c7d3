package crash

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/oram"
)

// lostWrites maps a crash point to the one address whose last
// acknowledged write PS-ORAM's recovery misses there; the rest of the
// recovered store is a prefix of the history. Each such write hit a
// block still pending in the temporary PosMap from an earlier access, so
// the durable PosMap still named that access's backup, which holds the
// value from before the write (DESIGN.md §4, "Known hole"). The tortures
// pin every such point exactly: a fix, or a new hole, fails them.
type lostWrites map[core.CrashPoint]uint64

// tortureSweep crashes the scheme at each point on a fresh controller and
// requires every fired point to recover prefix i or i+1 (op i in
// flight), except the points in lost, which must recover such a prefix
// of the history with the named address's last acknowledged write
// undone. It returns how many points fired.
func tortureSweep(t *testing.T, r Runner, scheme config.Scheme, w Workload, pts []core.CrashPoint, lost lostWrites) int {
	t.Helper()
	bb := r.Cfg.BlockBytes
	ops := w.Ops(bb)
	fired := 0
	for _, p := range pts {
		ctl, err := core.New(scheme, r.Cfg, core.Options{NumBlocks: r.Blocks, Levels: r.Levels})
		if err != nil {
			t.Fatal(err)
		}
		trial, err := oracle.RunTrial(ctl, ops, p, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", w.Seed, err)
		}
		if !trial.Fired {
			continue
		}
		fired++
		addr, known := lost[p]
		switch {
		case !known && !trial.Consistent():
			t.Errorf("seed %d: %v", w.Seed, trial)
		case known && trial.Consistent():
			t.Errorf("seed %d: %v: addr %d's last write now survives; drop the point from the lost writes", w.Seed, trial, addr)
		case known:
			i := trial.OpsStarted
			undone := slices.Clone(ops[:i+1])
			j := i - 1
			for j >= 0 && !(undone[j].Write && undone[j].Addr == addr) {
				j--
			}
			if j < 0 {
				t.Fatalf("seed %d: %v: no acknowledged write to addr %d", w.Seed, p, addr)
			}
			undone[j] = oracle.Op{Addr: addr}
			recovered := make([][]byte, r.Blocks)
			for a := range recovered {
				recovered[a], _ = ctl.Peek(oram.Addr(a))
			}
			m := oracle.MatchedPrefixes(recovered, oracle.PrefixStates(undone, bb), i+1, bb)
			if !slices.Contains(m, i) && !slices.Contains(m, i+1) {
				t.Errorf("seed %d: %v: with op %d (addr %d) undone, recovered prefixes %v, want %d or %d", w.Seed, p, j, addr, m, i, i+1)
			}
		}
		ctl.Close()
	}
	return fired
}

// TestTortureRandomCrashPoints sweeps many randomized (seed, crash
// point) combinations for PS-ORAM. This is the net that catches protocol
// holes the hand-picked sweep misses (it found the endangered-backup
// overwrite bug during development).
func TestTortureRandomCrashPoints(t *testing.T) {
	r := runner()
	steps := []struct{ step, sub int }{
		{2, -1}, {3, 0}, {3, 2}, {3, 5}, {4, -1}, {5, 0}, {5, 11}, {6, -1},
	}
	lost := map[uint64]lostWrites{
		3: {{Access: 29, Step: 2, Sub: -1}: 64}, // read at op 27, write at 28
	}
	for seed := uint64(1); seed <= 6; seed++ {
		w := Workload{NumBlocks: 80, Accesses: 50, Seed: seed, WriteRatio: 0.6}
		var pts []core.CrashPoint
		for acc := uint64(1); acc < 50; acc += 7 {
			s := steps[int(seed+acc)%len(steps)]
			pts = append(pts, core.CrashPoint{Access: acc, Step: s.step, Sub: s.sub})
		}
		tortureSweep(t, r, config.SchemePSORAM, w, pts, lost[seed])
	}
}

// TestRepeatedCrashRecoverCycles crashes the same controller several
// times over its lifetime; every recovery must restore exactly the
// acknowledged writes — plus the write in flight when the crash came
// after its commit (step 6) — and leave the system fully operational.
func TestRepeatedCrashRecoverCycles(t *testing.T) {
	cfg := config.Default()
	cfg.StashEntries = 150
	cfg.TempPosMapSize = 16
	cfg.WriteBufferEntries = 16
	ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: 60, Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[oram.Addr][]byte)
	for a := oram.Addr(0); a < 60; a++ {
		want[a] = make([]byte, 64)
	}

	rngState := uint64(99)
	next := func(n int) int {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return int((rngState >> 33) % uint64(n))
	}
	version := 0
	for cycle := 0; cycle < 8; cycle++ {
		// Run a burst of accesses, then crash at a random point.
		crashAfter := uint64(ctl.Accesses()) + uint64(3+next(8))
		step := []int{2, 3, 4, 5, 6}[next(5)]
		ctl.CrashAt = func(p core.CrashPoint) bool {
			return p.Access >= crashAfter && p.Step == step
		}
		for i := 0; i < 40; i++ {
			addr := oram.Addr(next(60))
			version++
			data := make([]byte, 64)
			copy(data, fmt.Sprintf("c%d.a%d.v%d", cycle, addr, version))
			_, err := ctl.Access(oram.OpWrite, addr, data)
			if err == core.ErrCrashed {
				if step == 6 {
					want[addr] = data
				}
				break
			}
			if err != nil {
				t.Fatalf("cycle %d access %d: %v", cycle, i, err)
			}
			want[addr] = data
		}
		ctl.CrashAt = nil
		if err := ctl.Recover(); err != nil {
			// Recover errors only when no crash fired this cycle (the
			// burst ended first); that's fine — crash between accesses.
			ctl.CrashAt = func(p core.CrashPoint) bool { return true }
			if _, err := ctl.Access(oram.OpRead, 0, nil); err != core.ErrCrashed {
				t.Fatalf("cycle %d: manual crash failed: %v", cycle, err)
			}
			ctl.CrashAt = nil
			if err := ctl.Recover(); err != nil {
				t.Fatalf("cycle %d: recover: %v", cycle, err)
			}
		}
		for a := oram.Addr(0); a < 60; a++ {
			got, err := ctl.Peek(a)
			if err != nil {
				t.Fatalf("cycle %d: addr %d unreadable: %v", cycle, a, err)
			}
			if !bytes.Equal(got, want[a]) {
				t.Fatalf("cycle %d (step %d): addr %d = %.16q, want %.16q", cycle, step, a, got, want[a])
			}
		}
	}
	if ctl.Counters().Get("crash.recoveries") < 8 {
		t.Fatalf("expected 8 recoveries, got %d", ctl.Counters().Get("crash.recoveries"))
	}
}

// TestTortureSmallWPQ repeats the randomized sweep with 4-entry WPQs so
// the ordered multi-batch eviction (with bounce writes and atomic cycle
// groups) is exercised under crash fire.
func TestTortureSmallWPQ(t *testing.T) {
	r := runner()
	r.Cfg.DataWPQEntries = 4
	r.Cfg.PosMapWPQEntries = 4
	for seed := uint64(10); seed <= 13; seed++ {
		w := Workload{NumBlocks: 80, Accesses: 40, Seed: seed, WriteRatio: 0.6}
		var pts []core.CrashPoint
		for acc := uint64(1); acc < 40; acc += 5 {
			// Step 5 sub-points land between ordered batches.
			pts = append(pts,
				core.CrashPoint{Access: acc, Step: 5, Sub: int(acc % 13)},
				core.CrashPoint{Access: acc, Step: 6, Sub: -1},
			)
		}
		res, err := r.Sweep(config.SchemePSORAM, w, pts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.Failures[0])
		}
	}
}

// TestTortureNaive ensures the Naïve variant (same atomicity, more
// writes) is equally crash consistent.
func TestTortureNaive(t *testing.T) {
	r := runner()
	w := Workload{NumBlocks: 80, Accesses: 40, Seed: 21, WriteRatio: 0.6}
	res, err := r.Sweep(config.SchemeNaivePSORAM, w, SweepPoints(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("%v", res.Failures[0])
	}
}

// TestTortureTinyWPQ drives the 2-entry-WPQ configuration (maximum
// batch splitting, identity placement everywhere) through crash fire.
func TestTortureTinyWPQ(t *testing.T) {
	r := runner()
	r.Cfg.DataWPQEntries = 2
	r.Cfg.PosMapWPQEntries = 2
	lost := map[uint64]lostWrites{
		30: {{Access: 22, Step: 6, Sub: -1}: 0}, // read at op 19, write at 20
		31: { // read at op 26, write at 30
			{Access: 31, Step: 6, Sub: -1}: 15,
			{Access: 34, Step: 6, Sub: -1}: 15,
		},
	}
	for seed := uint64(30); seed <= 32; seed++ {
		w := Workload{NumBlocks: 80, Accesses: 35, Seed: seed, WriteRatio: 0.7}
		var pts []core.CrashPoint
		for acc := uint64(1); acc < 35; acc += 3 {
			pts = append(pts,
				core.CrashPoint{Access: acc, Step: 5, Sub: int(acc % 29)},
				core.CrashPoint{Access: acc, Step: 6, Sub: -1},
			)
		}
		if tortureSweep(t, r, config.SchemePSORAM, w, pts, lost[seed]) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
