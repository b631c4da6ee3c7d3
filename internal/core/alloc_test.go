package core

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestCoreSteadyStateAllocs pins the controller's hot-path allocation
// budget: once the stash, freelists, and scratch buffers have warmed
// up, a PS-ORAM access — load path, serve, commit — must not
// allocate. The measured value is 0.00; the budget leaves room for
// incidental runtime noise (a map rehash, a histogram bucket) without
// letting a per-access allocation regress back in.
func TestCoreSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, config.SchemePSORAM, config.Default(), Options{NumBlocks: 512, Levels: 8}, 2.0)
}

// TestCoreUntimedSteadyStateAllocs pins the same budget over the untimed
// memory model — the controller every Store and pool shard runs.
func TestCoreUntimedSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, config.SchemePSORAM, config.Default(), Options{NumBlocks: 512, Levels: 8, Untimed: true}, 2.0)
}

// TestCoreBaselineSteadyStateAllocs guards the posted write-back: every
// slot of the path is an undoable image write, logged with its copy of a
// real block's previous payload in the image's reused undo log, and the
// posted-write journal holds completion cycles only. Measured: 0.00 per
// write access and per read at L=8 (71 and 70 when every undo was a
// closure).
func TestCoreBaselineSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, config.SchemeBaseline, config.Default(), Options{NumBlocks: 512, Levels: 8}, 2)
}

// rcrConfig is the recursive guards' configuration: two PosMap trees
// over 512 blocks, and for Rcr-PS-ORAM a batch that spans the access,
// flushes included.
func rcrConfig() config.Config {
	cfg := config.Default()
	cfg.OnChipPosMapBytes = 4 * 64 * 8
	cfg.DataWPQEntries = 4 * 9 * cfg.Z
	return cfg
}

// TestCoreRcrPSORAMSteadyStateAllocs guards the access-spanning batch of
// Rcr-PS-ORAM over two PosMap trees: every slot written into the batch
// is logged in its tree's undo log until the batch commits. Measured:
// 0.00 per write access and per read (135 and 133 when every undo was a
// closure).
func TestCoreRcrPSORAMSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, config.SchemeRcrPSORAM, rcrConfig(), Options{NumBlocks: 512, Levels: 8}, 2)
}

// TestCoreRcrBaselineSteadyStateAllocs guards the recursive scheme's
// posted write-backs, on the data tree and both PosMap trees, and the
// chain walk. Measured: 0.00 per write access and per read (133 and 132
// when every undo was a closure).
func TestCoreRcrBaselineSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, config.SchemeRcrBaseline, rcrConfig(), Options{NumBlocks: 512, Levels: 8}, 2)
}

// TestCorePSORAMWPQ4SteadyStateAllocs guards the ordered small-WPQ
// eviction (§4.2.3), whose working sets are slot-indexed arrays in the
// controller's scratch. Measured: 0.00 per write access and per read (79
// and 78 when they were per-eviction maps).
func TestCorePSORAMWPQ4SteadyStateAllocs(t *testing.T) {
	cfg := config.Default()
	cfg.DataWPQEntries = 4
	steadyStateAllocs(t, config.SchemePSORAM, cfg, Options{NumBlocks: 512, Levels: 8}, 2)
}

func steadyStateAllocs(t *testing.T, scheme config.Scheme, cfg config.Config, opts Options, budget float64) {
	ctl, err := New(scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockBytes)
	// Warm up: touch every address so the stash, the temporary PosMap,
	// and the stash-block freelist reach their steady-state sizes.
	for i := 0; i < 2000; i++ {
		if _, err := ctl.Access(oram.OpWrite, oram.Addr(i%512), buf); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	writes := testing.AllocsPerRun(500, func() {
		i++
		if _, err := ctl.Access(oram.OpWrite, oram.Addr((i*7)%512), buf); err != nil {
			t.Fatal(err)
		}
	})
	reads := testing.AllocsPerRun(500, func() {
		i++
		if _, err := ctl.Access(oram.OpRead, oram.Addr((i*7)%512), nil); err != nil {
			t.Fatal(err)
		}
	})
	if writes > budget {
		t.Errorf("steady-state write access allocates %.2f/op, budget %.1f", writes, budget)
	}
	if reads > budget {
		t.Errorf("steady-state read access allocates %.2f/op, budget %.1f", reads, budget)
	}
	t.Logf("steady-state allocs/op: write %.2f, read %.2f (budget %.1f)", writes, reads, budget)
}

// TestCoreFileStoreSteadyStateAllocs pins the file-backed controller's
// allocation budget separately from the in-memory one (which stays at
// zero). Real I/O is inherently allocating in Go — each persist opens
// chunk files and materializes their path strings, and the barrier's
// worker fans the chunk writes out over goroutines — so this backend
// gets its own measured budget: 68.00 when last measured, all of it in
// the per-access persist barrier. The budget catches a per-slot or
// per-bucket allocation creeping into chunk serialization (which would
// show up as hundreds per access), not the fixed file-handling cost.
func TestCoreFileStoreSteadyStateAllocs(t *testing.T) {
	const budget = 80.0

	cfg := config.Default()
	ctl, err := New(config.SchemePSORAM, cfg,
		Options{NumBlocks: 512, Levels: 8, StoreDir: filepath.Join(t.TempDir(), "store")})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.counters.Get("storage.opens") != 0 {
		t.Fatal("expected a fresh store")
	}
	defer ctl.Close()
	buf := make([]byte, cfg.BlockBytes)
	warm, runs := 1000, 300
	if testing.Short() {
		warm, runs = 300, 100
	}
	for i := 0; i < warm; i++ {
		if _, err := ctl.Access(oram.OpWrite, oram.Addr(i%512), buf); err != nil {
			t.Fatal(err)
		}
	}

	i := 0
	writes := testing.AllocsPerRun(runs, func() {
		i++
		if _, err := ctl.Access(oram.OpWrite, oram.Addr((i*7)%512), buf); err != nil {
			t.Fatal(err)
		}
	})
	reads := testing.AllocsPerRun(runs, func() {
		i++
		if _, err := ctl.Access(oram.OpRead, oram.Addr((i*7)%512), nil); err != nil {
			t.Fatal(err)
		}
	})
	if writes > budget {
		t.Errorf("file-backed write access allocates %.2f/op, budget %.1f", writes, budget)
	}
	if reads > budget {
		t.Errorf("file-backed read access allocates %.2f/op, budget %.1f", reads, budget)
	}
	t.Logf("file-backed steady-state allocs/op: write %.2f, read %.2f (budget %.1f)", writes, reads, budget)
}
