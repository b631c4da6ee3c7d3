package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestSimulateTraceMode covers the Records drive mode, including the
// TraceName label.
func TestSimulateTraceMode(t *testing.T) {
	recs := []trace.Record{
		{InstrGap: 10, Addr: 1, Write: false},
		{InstrGap: 5, Addr: 2, Write: true},
		{InstrGap: 7, Addr: 3, Write: false},
	}
	res, err := Simulate(context.Background(), Request{
		Scheme: config.SchemePSORAM, Config: config.Default(), Records: recs, TraceName: "mini.trace", Levels: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mini.trace" {
		t.Fatalf("trace run labelled %q, want mini.trace", res.Workload)
	}
	if res.Accesses != uint64(len(recs)) {
		t.Fatalf("trace run served %d accesses, want %d", res.Accesses, len(recs))
	}
}

// TestSimulateRejectsNoAccesses: a run with nothing to simulate would
// report per-access metrics of 0/0; Simulate refuses it, whether the
// count comes from N or from an empty Records.
func TestSimulateRejectsNoAccesses(t *testing.T) {
	w := testWorkload()
	for name, req := range map[string]Request{
		"N 0":           {Workload: w, N: 0},
		"N -3":          {Workload: w, N: -3},
		"empty Records": {Workload: w, N: 100, Records: []trace.Record{}},
	} {
		req.Scheme, req.Levels = config.SchemePSORAM, 8
		if res, err := Simulate(context.Background(), req); err == nil || !strings.Contains(err.Error(), "need at least 1 access") {
			t.Errorf("%s: got %+v, %v; want a need-at-least-1-access error", name, res, err)
		}
	}
}

// TestReplayMatchesGenerator: replaying the generator's own stream
// through Records gives the same Result as the Workload run, in every
// field but the label. This is what lets one loop serve both inputs.
func TestReplayMatchesGenerator(t *testing.T) {
	const n, levels = 600, 10
	w := testWorkload()
	cfg := config.Default()
	for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeBaseline} {
		gen, err := Simulate(context.Background(), Request{Scheme: scheme, Config: cfg, Workload: w, N: n, Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(scheme, cfg, levels)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.NewGenerator(w, cfg.Seed, sys.NumBlocks()).Generate(n)
		rep, err := Simulate(context.Background(), Request{Scheme: scheme, Config: cfg, Records: recs, TraceName: "replay", Levels: levels})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Workload != "replay" {
			t.Errorf("%s: replay labelled %q", scheme, rep.Workload)
		}
		rep.Workload = gen.Workload
		if rep != gen {
			t.Errorf("%s: replay differs from the generator run:\n replay    %+v\n generator %+v", scheme, rep, gen)
		}
	}
}

// TestSimulateDefaultConfig: a zero-valued Config means config.Default().
func TestSimulateDefaultConfig(t *testing.T) {
	w, err := trace.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(context.Background(), Request{
		Scheme: config.SchemeBaseline, Workload: w, N: 50, Levels: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(context.Background(), Request{
		Scheme: config.SchemeBaseline, Config: config.Default(), Workload: w, N: 50, Levels: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Fatal("zero Config did not default to config.Default()")
	}
}

// TestSimulateCancellation: a cancelled context aborts the run at the
// next checkpoint with an error wrapping the context error — before the
// run completes, not after.
func TestSimulateCancellation(t *testing.T) {
	w, err := trace.ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Simulate(ctx, Request{
			Scheme: config.SchemePSORAM, Config: config.Default(), Workload: w, N: 10000, Levels: 12,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		start := time.Now()
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		// Large enough that an uncancelled run takes far longer than the
		// cancellation latency asserted below.
		_, err := Simulate(ctx, Request{
			Scheme: config.SchemePSORAM, Config: config.Default(), Workload: w, N: 20_000_000, Levels: 14,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("cancellation took %v; checkpoints are not firing", elapsed)
		}
	})
}
