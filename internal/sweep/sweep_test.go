package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testGrid returns the acceptance grid: 3 schemes × 2 workloads × 2
// channel counts at a scale that keeps -race runs quick. Short mode (the
// grid `make check` wires in) shrinks each cell further; the grid shape
// stays the same so the parallel-vs-serial and isolation checks keep
// their coverage.
func testGrid() Grid {
	ws := trace.Table4()
	g := Grid{
		Schemes:   []config.Scheme{config.SchemeBaseline, config.SchemePSORAM, config.SchemeNaivePSORAM},
		Workloads: []trace.Workload{ws[0], ws[2]}, // 401.bzip2, 429.mcf
		Channels:  []int{1, 2},
		Accesses:  400,
		Levels:    10,
	}
	if testing.Short() {
		g.Accesses = 150
		g.Levels = 8
	}
	return g
}

// stripWall zeroes the wall-clock fields so runs can be compared
// byte-for-byte.
func stripWall(r *Results) {
	r.Wall, r.CellTime, r.Workers = 0, 0, 0
	for i := range r.Cells {
		r.Cells[i].Wall = 0
	}
}

// TestParallelMatchesSerial is the acceptance check: the 3×2×2 grid on
// 4 workers produces results byte-identical to the serial run. The
// achieved speedup is logged (≈1 on a single-core host; the engine's
// win is wall-clock on multicore machines).
func TestParallelMatchesSerial(t *testing.T) {
	g := testGrid()
	serial, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial: %v; parallel (4 workers): %v, %.2fx speedup",
		serial.Wall, parallel.Wall, float64(serial.Wall)/float64(parallel.Wall))

	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	for i := range serial.Cells {
		s, p := serial.Cells[i], parallel.Cells[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("cell %s errored: serial=%v parallel=%v", s.Cell, s.Err, p.Err)
		}
		if !reflect.DeepEqual(s.Result, p.Result) {
			t.Fatalf("cell %s diverged between 1 and 4 workers:\nserial:   %+v\nparallel: %+v",
				s.Cell, s.Result, p.Result)
		}
	}
	// Byte-level check through the JSON emitter too (wall times stripped).
	var bs, bp bytes.Buffer
	stripWall(serial)
	stripWall(parallel)
	if err := WriteJSON(&bs, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&bp, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
		t.Fatal("JSON encodings differ between 1 and 4 workers")
	}
}

// TestCellIsolatedFromGrid re-runs one cell alone through sim.Run with
// the cell's derived seed and expects the exact in-grid result — proof
// that cells share no hidden RNG or simulator state.
func TestCellIsolatedFromGrid(t *testing.T) {
	g := testGrid()
	res, err := Run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 3, len(res.Cells) - 1} {
		cell := res.Cells[c]
		cfg := config.Default()
		cfg.Channels = cell.Cell.Channels
		cfg.Seed = cell.Cell.Seed
		alone, err := sim.Simulate(context.Background(), sim.Request{Scheme: cell.Cell.Scheme, Config: cfg, Workload: cell.Cell.Workload, N: g.Accesses, Levels: g.Levels})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone, cell.Result) {
			t.Fatalf("cell %s: isolated run differs from in-grid run:\nalone: %+v\ngrid:  %+v",
				cell.Cell, alone, cell.Result)
		}
	}
}

// TestCellSeedsDistinct checks that no two cells of a realistic grid
// share a derived seed, and that the derivation ignores grid shape.
func TestCellSeedsDistinct(t *testing.T) {
	g := Grid{
		Schemes:   config.Schemes(),
		Workloads: trace.Table4(),
		Channels:  []int{1, 2, 4},
		Seeds:     3,
	}
	seen := make(map[uint64]Cell)
	for _, c := range g.Cells() {
		if prev, dup := seen[c.Seed]; dup {
			t.Fatalf("seed collision: %s and %s both derive %#x", prev, c, c.Seed)
		}
		seen[c.Seed] = c
	}
	// Shape independence: the same coordinates in a smaller grid derive
	// the same seed.
	small := Grid{
		Schemes:   []config.Scheme{config.SchemePSORAM},
		Workloads: trace.Table4()[2:3],
		Channels:  []int{4},
	}
	want := CellSeed(1, config.SchemePSORAM, trace.Table4()[2].Name, 4, 0)
	if got := small.Cells()[0].Seed; got != want {
		t.Fatalf("cell seed depends on grid shape: %#x vs %#x", got, want)
	}
}

// TestPanicCapture checks the per-cell panic shield: a panicking cell
// records its panic (with stack) in its own CellResult instead of
// killing the goroutine pool.
func TestPanicCapture(t *testing.T) {
	cell := Cell{Scheme: config.SchemeBaseline, Workload: trace.Table4()[0], Channels: 1, Seed: 7}
	cr := runProtected(cell, func() (sim.Result, error) {
		panic("boom in cell")
	})
	if cr.Err == nil || !strings.Contains(cr.Err.Error(), "panic in cell") {
		t.Fatalf("expected captured panic error, got %v", cr.Err)
	}
	if !strings.Contains(cr.Panic, "boom in cell") || !strings.Contains(cr.Panic, "goroutine") {
		t.Fatalf("panic record missing message or stack: %q", cr.Panic)
	}

	// Whole-sweep survival with a genuinely panicking simulator: a
	// utilization so small the tree holds zero logical blocks makes
	// sim.System.Serve divide by zero. Every cell must fail with a
	// captured panic while Run itself returns cleanly.
	cfg := config.Default()
	cfg.Utilization = 1e-12
	g := Grid{
		Schemes:   []config.Scheme{config.SchemeBaseline},
		Workloads: trace.Table4()[:2],
		Accesses:  50,
		Levels:    8,
		Cfg:       cfg,
	}
	res, err := Run(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatalf("sweep died instead of capturing cell panics: %v", err)
	}
	if len(res.Failed()) != len(res.Cells) || len(res.Cells) != 2 {
		t.Fatalf("want 2 failed cells, got %d/%d", len(res.Failed()), len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Panic == "" || !strings.Contains(c.Err.Error(), "panic in cell") {
			t.Fatalf("cell %s: panic not captured: err=%v", c.Cell, c.Err)
		}
	}
	if err := res.FirstError(); err == nil {
		t.Fatal("FirstError did not surface the panicking cells")
	}
}

// TestContextCancellation stops the feed mid-sweep: started cells finish,
// unstarted ones are marked Skipped, and Run returns the context error.
func TestContextCancellation(t *testing.T) {
	g := testGrid()
	g.Seeds = 4 // 48 cells, enough to cancel mid-flight
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res, err := Run(ctx, g, Options{
		Workers: 2,
		OnResult: func(done, total int, r CellResult) {
			once.Do(cancel)
		},
	})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var skipped, ran int
	for _, c := range res.Cells {
		if c.Skipped {
			skipped++
		} else if c.Err == nil {
			ran++
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation skipped no cells")
	}
	if ran == 0 {
		t.Fatal("no cell completed before cancellation")
	}
}

// TestMidCellCancellation pins the new behaviour: the context reaches
// sim.Simulate's loop checkpoints, so cancelling aborts the in-flight
// cell itself — its result carries an error wrapping context.Canceled —
// instead of waiting for the cell to run to completion.
func TestMidCellCancellation(t *testing.T) {
	g := Grid{
		Schemes:   []config.Scheme{config.SchemePSORAM},
		Workloads: trace.Table4()[:1],
		Accesses:  20_000_000, // far longer than the cancellation latency below
		Levels:    14,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, g, Options{Workers: 1})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled from Run, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("sweep took %v to cancel; ctx is not reaching the cell", elapsed)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(res.Cells))
	}
	c := res.Cells[0]
	if c.Skipped {
		t.Fatal("the in-flight cell was marked Skipped instead of aborted")
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "cancelled") {
		t.Fatalf("want cell error recording the mid-run abort, got %v", c.Err)
	}
}

// TestValidationErrors covers the messages psoram sweep surfaces for bad
// grids.
func TestValidationErrors(t *testing.T) {
	base := testGrid()
	cases := []struct {
		name   string
		mutate func(*Grid)
		want   string
	}{
		{"no schemes", func(g *Grid) { g.Schemes = nil }, "no schemes"},
		{"no workloads", func(g *Grid) { g.Workloads = nil }, "no workloads"},
		{"bad channels", func(g *Grid) { g.Channels = []int{3} }, "Channels must be 1, 2, 4 or 8"},
		{"no accesses", func(g *Grid) { g.Accesses = 0 }, "need at least 1 access, got 0"},
		{"levels too small", func(g *Grid) { g.Levels = 3 }, "out of range [4,26]"},
		{"levels too large", func(g *Grid) { g.Levels = 27 }, "out of range [4,26]"},
		{"repeated scheme", func(g *Grid) {
			g.Schemes = []config.Scheme{config.SchemeBaseline, config.SchemePSORAM, config.SchemeBaseline}
		}, "scheme Baseline listed twice"},
		{"repeated workload", func(g *Grid) { g.Workloads = append(g.Workloads[:1:1], g.Workloads[0]) }, "workload " + base.Workloads[0].Name + " listed twice"},
		{"repeated channels", func(g *Grid) { g.Channels = []int{1, 1} }, "channel count 1 listed twice"},
	}
	for _, tc := range cases {
		g := base
		tc.mutate(&g)
		_, err := Run(context.Background(), g, Options{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// TestEmitters sanity-checks the JSON and CSV encodings of a small run.
func TestEmitters(t *testing.T) {
	g := testGrid()
	g.Schemes = g.Schemes[:2]
	g.Workloads = g.Workloads[:1]
	g.Channels = []int{1}
	res, err := Run(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var jb bytes.Buffer
	if err := WriteJSON(&jb, res); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Grid struct {
			Schemes []string `json:"schemes"`
		} `json:"grid"`
		Cells []struct {
			Scheme string `json:"scheme"`
			Result *struct {
				Cycles uint64 `json:"Cycles"`
			} `json:"result"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(decoded.Cells) != 2 || decoded.Cells[0].Result == nil || decoded.Cells[0].Result.Cycles == 0 {
		t.Fatalf("JSON missing cell results: %s", jb.String())
	}

	var cb bytes.Buffer
	if err := WriteCSV(&cb, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "scheme,workload,channels") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}

	tab := SummaryTable(res)
	if tab.NumRows() != 2 {
		t.Fatalf("summary table has %d rows, want 2", tab.NumRows())
	}
	if !strings.Contains(tab.String(), "PS-ORAM") {
		t.Fatalf("summary table missing scheme row:\n%s", tab)
	}
}

// TestConcurrentSystemsAreIndependent hammers many simulator instances
// from concurrent goroutines; under -race this is the audit that sim,
// mem, nvm, rng, and trace share no mutable state.
func TestConcurrentSystemsAreIndependent(t *testing.T) {
	w := trace.Table4()[0]
	want, err := sim.Simulate(context.Background(), sim.Request{Scheme: config.SchemePSORAM, Config: config.Default(), Workload: w, N: 200, Levels: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := sim.Simulate(context.Background(), sim.Request{Scheme: config.SchemePSORAM, Config: config.Default(), Workload: w, N: 200, Levels: 8})
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs[i] = context.DeadlineExceeded // sentinel; message below
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d diverged or failed: %v", i, err)
		}
	}
}

// BenchmarkSweepWorkers reports wall-clock per sweep at 1 and 4 workers;
// on a multicore host the 4-worker figure shows the speedup.
func BenchmarkSweepWorkers(b *testing.B) {
	g := testGrid()
	g.Accesses = 200
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers4"}[workers], func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), g, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Wall
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N)/1e6, "ms/sweep")
		})
	}
}
