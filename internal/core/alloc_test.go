package core

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
)

// TestCoreSteadyStateAllocs pins the controller's hot-path allocation
// budget: once the stash, freelists, and scratch buffers have warmed
// up, a PS-ORAM access — load path, serve, seal, commit — must not
// allocate. The measured value is 0.00; the budget leaves room for
// incidental runtime noise (a map rehash, a histogram bucket) without
// letting a per-access allocation regress back in.
func TestCoreSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, Options{NumBlocks: 512, Levels: 8})
}

// TestCoreUntimedSteadyStateAllocs pins the same budget over the untimed
// memory model — the controller every Store and pool shard runs.
func TestCoreUntimedSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, Options{NumBlocks: 512, Levels: 8, Untimed: true})
}

func steadyStateAllocs(t *testing.T, opts Options) {
	const budget = 2.0

	cfg := config.Default()
	ctl, err := New(config.SchemePSORAM, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cfg.BlockBytes)
	// Warm up: touch every address so the stash, the temporary PosMap,
	// and the seal-buffer freelists reach their steady-state sizes.
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

// TestCoreEagerSealSteadyStateAllocs is the allocation guard on an
// eager-sealing controller: every eviction runs sealSlots, whose seal
// buffers must all come from the freelists.
func TestCoreEagerSealSteadyStateAllocs(t *testing.T) {
	const budget = 0.0

	cfg := config.Default()
	ctl, err := New(config.SchemePSORAM, cfg, Options{NumBlocks: 512, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.ORAM.Image.DisableLazySeal()
	buf := make([]byte, cfg.BlockBytes)
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
	if writes > budget {
		t.Errorf("eager-seal steady-state write access allocates %.2f/op, budget %.1f", writes, budget)
	}
	t.Logf("eager-seal steady-state allocs/op: write %.2f (budget %.1f)", writes, budget)
}

// TestCoreFileStoreSteadyStateAllocs pins the file-backed controller's
// allocation budget separately from the in-memory one (which stays at
// zero). Real I/O is inherently allocating in Go — each persist opens
// chunk files and materializes their path strings — so this backend
// gets its own measured budget: 56.00 at pinning time, all of it in the
// per-access persist barrier. The budget catches a per-slot or
// per-bucket allocation creeping into chunk serialization (which would
// show up as hundreds per access), not the fixed file-handling cost.
func TestCoreFileStoreSteadyStateAllocs(t *testing.T) {
	const budget = 80.0

	cfg := config.Default()
	ctl, created, err := NewDurable(config.SchemePSORAM, cfg,
		Options{NumBlocks: 512, Levels: 8}, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
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
