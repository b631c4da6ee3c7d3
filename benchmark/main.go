// Command psoram-benchmark is the repository's benchmark: one command
// runs one serving workload from a seed, checks every value it gets
// back, and prints every metric by name and unit. See README.md.
//
//	bash benchmark/run.sh --workload mem-deep --seed 1 --seconds 32 --trace 0
//	bash benchmark/run.sh --workload mem-deep --seed 1 --seconds 32 --trace 1
//	bash benchmark/run.sh -calibrate 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir holds everything the benchmark writes; run.sh starts the
// program in the checkout root.
var outDir = filepath.Join("benchmark", "out")

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: mem-deep, net-shallow, hot-read, or the ungated durable-group")
		seed      = flag.Uint64("seed", 1, "seed for every generated input")
		seconds   = flag.Int("seconds", runSeconds, "seconds of measurement, shared between the phases")
		traced    = flag.Int("trace", 0, "1 = traced run (per-layer metrics, ladder, span file); 0 = end-to-end metrics")
		storeRoot = flag.String("store-root", outDir, "where durable-group's shards live")
		calibrate = flag.Int("calibrate", 0, "run every gated workload N times, print the spreads and write the bounds into BENCHMARK.json")
	)
	flag.Parse()
	if *calibrate > 0 {
		if err := runCalibration(*calibrate, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced != 0, storeRoot: *storeRoot}
	var res result
	if cfg.traced {
		res, err = runTraced(context.Background(), cfg)
	} else {
		res, err = runEndToEnd(context.Background(), cfg)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psoram-benchmark:", err)
	os.Exit(2)
}

// runConfig is what one run is asked to do.
type runConfig struct {
	w         workload
	seed      uint64
	seconds   int
	traced    bool
	storeRoot string
}

// Load runs in stretches: a closed slice or a paced window, short enough
// that some of them fall in the box's undisturbed moments (see README.md,
// "Best slice"). An untraced run alternates the two, so each phase sees
// all of the run's seconds; the closed phase, which every gated timing
// comes from, gets two thirds of them.
const (
	sliceLen  = 250 * time.Millisecond
	windowLen = 125 * time.Millisecond
)

// runEndToEnd is the untraced run on the stock psoram.NewPool path:
// set-up, closed slices (capacity and CPU) alternating with paced
// windows (latency at the pinned rate, and the check that it is served
// without a failure or a backlog), then the output check.
func runEndToEnd(ctx context.Context, cfg runConfig) (result, error) {
	w := cfg.w
	cycles := int(time.Duration(cfg.seconds) * time.Second / (sliceLen + windowLen))
	sys, ref, setups, total, err := setUp(ctx, w, cfg.seed, cfg.storeRoot, nil, 0)
	if err != nil {
		return result{}, err
	}
	defer sys.discard()
	hdr := newHeader(cfg, sys)

	sl, err := newSleeper()
	if err != nil {
		return result{}, err
	}
	defer sl.close()
	closed := newPhase(newWorkers(w, cfg.seed, 1, sys.clients, ref), false)
	paced := newPhase(newWorkers(w, cfg.seed, 2, sys.clients, ref), true)
	for _, offs := range cutSchedule(schedule(cfg.seed, w.Rate, time.Duration(cycles)*windowLen), windowLen, cycles) {
		closed.runClosed(ctx, sliceLen)
		paced.runPaced(ctx, sl, offs, windowLen)
	}
	total.add(tallyOf(closed.workers))
	total.add(tallyOf(paced.workers))
	total.attempted += paced.backlog
	total.errs += paced.backlog

	vt, notes, err := sys.verify(ctx, cfg.seed, ref)
	if err != nil {
		return result{}, err
	}
	total.add(vt)

	cs, ps := closed.closedStats(), paced.latencyStats(w.SLO)
	res := newResult(hdr, total)
	res.Notes = append(notes,
		fmt.Sprintf("set-up: %d times, seconds each: %.4g", len(setups), setups),
		fmt.Sprintf("closed: %d workers, %d slices of %v; best slice %.0f ops/s (send to reply p50 %.1f us p99 %.1f us) and %.2f us CPU per op; median slice %.0f ops/s; whole phase %.0f ops/s and %.2f us CPU per op",
			w.Workers, len(closed.slices), sliceLen, cs.opsPerSec, cs.p50Us, cs.p99Us, cs.cpuUsPerOp, cs.opsPerSecMedian, cs.opsPerSecAll, cs.cpuUsPerOpAll),
		fmt.Sprintf("closed slices, ops/s: %.0f", closed.sliceOps()),
		fmt.Sprintf("paced: %.0f/s in %d windows of %v, %d samples, from due time: median window p50 %.1f us p99 %.1f us, whole phase p50 %.1f us p99 %.1f us p%g %.1f us, generator late p50 %.1f us p99 %.1f us, never sent %d, limit %v missed by %.4f%%",
			w.Rate, len(ps.winP50Us), windowLen, ps.samples, ps.p50Us, ps.p99Us, ps.allP50Us, ps.allP99Us, ps.tailPct, ps.tailUs, ps.lateP50Us, ps.lateP99Us, paced.backlog, w.SLO, 100*ps.sloMissFrac),
		fmt.Sprintf("paced windows, p50 us: %.1f", ps.winP50Us))
	if ps.saturated {
		res.Notes = append(res.Notes, "paced: SATURATED - in the usual window lateness grew from start to end; the latencies describe the window length, not the system")
	}
	res.set("setup_s", median(setups))
	res.set("ops_per_s", cs.opsPerSec)
	res.set("cpu_us_per_op", cs.cpuUsPerOp)
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}
