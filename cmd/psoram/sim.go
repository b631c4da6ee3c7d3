package main

// The simulation subcommands: sim, sweep, experiments, trace.

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	psoram "repro"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// runSim runs the full-system timing simulation for one (scheme,
// workload, channel-count) combination and prints its metrics.
//
//	psoram sim -scheme PS-ORAM -workload 401.bzip2 -accesses 5000 -channels 1 -levels 16
func runSim(args []string) {
	fs := newFlagSet()
	var (
		schemeName = schemeFlag(fs)
		workload   = workloadFlag(fs)
		accesses   = accessesFlag(fs, 5000, "LLC misses to simulate")
		channels   = channelsFlag(fs)
		levels     = levelsFlag(fs, "ORAM tree height L (paper: 23)", 16)
		traceFile  = fs.String("trace", "", "replay a \"psoram trace gen\" file instead of the synthetic workload")
		list       = listFlag(fs)
	)
	fs.Parse(args)
	if *list {
		printList("Workloads (Table 4):", psoram.Workloads())
		return
	}
	scheme, err := config.ParseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	cfg := psoram.DefaultConfig()
	cfg.Channels = channels.one("channels")
	var res psoram.SimResult
	if *traceFile != "" {
		res, err = psoram.SimulateTrace(scheme, cfg, *traceFile, levels.one("levels"))
	} else {
		res, err = psoram.Simulate(scheme, cfg, *workload, *accesses, levels.one("levels"))
	}
	if err != nil {
		fatal(err)
	}
	per := func(n uint64) float64 { return float64(n) / float64(res.Accesses) }
	fmt.Printf("scheme:          %s\n", scheme)
	fmt.Printf("workload:        %s\n", res.Workload)
	fmt.Printf("accesses:        %d\n", res.Accesses)
	fmt.Printf("instructions:    %d\n", res.Instrs)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("cycles/access:   %.0f\n", per(res.Cycles))
	fmt.Printf("NVM reads:       %d (%.1f/access)\n", res.Reads, per(res.Reads))
	fmt.Printf("NVM writes:      %d (%.1f/access)\n", res.Writes, per(res.Writes))
	fmt.Printf("bytes read:      %d\n", res.BytesRead)
	fmt.Printf("bytes written:   %d\n", res.BytesWritten)
	fmt.Printf("NVM energy:      %.3f uJ\n", float64(res.EnergyPJ)/1e6)
	fmt.Printf("dirty entries:   %d (%.2f/access)\n", res.DirtyEntries, per(res.DirtyEntries))
	if res.ChainBlocks > 0 {
		fmt.Printf("posmap chain:    %d blocks (%.1f/access)\n", res.ChainBlocks, per(res.ChainBlocks))
	}
	fmt.Printf("pending peak:    %d (C_TPos budget: %d)\n", res.PendingPeak, cfg.TempPosMapSize)
	fmt.Printf("wear imbalance:  %.2fx (max/min bank writes)\n", res.WearImbalance)
}

// runSweep regenerates whole evaluation grids — every (scheme x workload
// x channel-count x seed) cell — fanned out across a worker pool.
//
//	psoram sweep -schemes Baseline,PS-ORAM -workloads 401.bzip2,429.mcf -channels 1,2 -workers 4
//	psoram sweep -schemes all -workloads all -accesses 3000 -levels 16 -csv results.csv
func runSweep(args []string) {
	fs := newFlagSet()
	var (
		schemesArg   = schemesFlag(fs, "all")
		workloadsArg = workloadsFlag(fs, "all")
		channels     = channelsFlag(fs)
		seeds        = seedsFlag(fs, "seed replicas per grid point")
		rootSeed     = seedFlag(fs)
		accesses     = accessesFlag(fs, 3000, "LLC misses simulated per cell")
		levels       = levelsFlag(fs, "ORAM tree height L (paper: 23)", 16)
		workers      = workersFlag(fs)
		jsonPath     = jsonFlag(fs)
		csvPath      = fs.String("csv", "", "write per-cell results as CSV to this path (\"-\" = stdout)")
		quiet        = fs.Bool("quiet", false, "suppress live progress output")
		list         = listFlag(fs)
		profileDir   = fs.String("profile", "", "write cpu.pprof + heap.pprof for the run into this directory (see EXPERIMENTS.md)")
	)
	fs.Parse(args)
	if *list {
		printList("Workloads (Table 4):", psoram.Workloads())
		return
	}
	if *seeds < 1 {
		fatal(fmt.Errorf("need at least 1 seed, got %d", *seeds))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := startProfiles(*profileDir); err != nil {
		fatal(err)
	}
	defer func() { atExit() }()

	schemes, err := config.ParseSchemes(*schemesArg)
	if err != nil {
		fatal(err)
	}
	workloads := trace.Table4()
	if *workloadsArg != "all" {
		workloads = workloads[:0]
		for _, name := range strings.Split(*workloadsArg, ",") {
			w, err := trace.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			workloads = append(workloads, w)
		}
	}
	grid := sweep.Grid{
		Schemes:   schemes,
		Workloads: workloads,
		Channels:  *channels,
		Seeds:     *seeds,
		RootSeed:  *rootSeed,
		Accesses:  *accesses,
		Levels:    levels.one("levels"),
	}
	res, err := sweep.Run(ctx, grid, sweepOptions(*workers, *quiet))
	if err != nil {
		fatal(err)
	}

	summary := summaryOut(*jsonPath, *csvPath)
	fmt.Fprintln(summary, sweep.SummaryTable(res))
	fmt.Fprintf(summary, "grid: %d cells on %d workers in %v (aggregate cell time %v, %.2fx parallel speedup)\n",
		len(res.Cells), res.Workers, res.Wall.Round(1e6), res.CellTime.Round(1e6), res.Speedup())
	emit := func(path string, write func(io.Writer, *sweep.Results) error) {
		if path == "" {
			return
		}
		if err := emitTo(path, func(w io.Writer) error { return write(w, res) }); err != nil {
			fatal(err)
		}
	}
	emit(*jsonPath, sweep.WriteJSON)
	emit(*csvPath, sweep.WriteCSV)
	if failed := res.Failed(); len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "psoram sweep: cell %s: %v\n", f.Cell, f.Err)
		}
		atExit()
		os.Exit(1)
	}
}

// sweepOptions sizes the worker pool and, unless quiet, draws the live
// progress line on stderr.
func sweepOptions(workers int, quiet bool) sweep.Options {
	opt := sweep.Options{Workers: workers}
	if !quiet {
		opt.OnResult = func(done, total int, r sweep.CellResult) {
			status := ""
			if r.Err != nil {
				status = "  FAILED"
			}
			fmt.Fprintf(os.Stderr, "\r\033[K[%d/%d] %s%s", done, total, r.Cell, status)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return opt
}

// startProfiles begins a CPU profile in dir and hangs the flush — stop
// the CPU profile, write a heap snapshot — on atExit, mirroring `go test
// -cpuprofile -memprofile` for whole-sweep runs.
func startProfiles(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cpuPath := filepath.Join(dir, "cpu.pprof")
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return err
	}
	heapPath := filepath.Join(dir, "heap.pprof")
	atExit = func() {
		atExit = func() {}
		pprof.StopCPUProfile()
		cpuFile.Close()
		heapFile, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psoram sweep: heap profile: %v\n", err)
			return
		}
		runtime.GC() // flush unreachable objects so in-use stats are accurate
		if err := pprof.WriteHeapProfile(heapFile); err != nil {
			fmt.Fprintf(os.Stderr, "psoram sweep: heap profile: %v\n", err)
		}
		heapFile.Close()
		fmt.Fprintf(os.Stderr, "profiles written: %s, %s\n", cpuPath, heapPath)
	}
	return nil
}

// runExperiments regenerates the paper's tables and figures as text
// tables (the rows/series of Figures 5-7 and Tables 1-2, plus the
// crash-recoverability matrix and the §5.1 ORAM-cost study). The
// simulations behind them all run first, each once, on every core.
//
//	psoram experiments                              # every experiment, quick scale
//	psoram experiments -exp fig5a                   # one experiment
//	psoram experiments -accesses 20000 -levels 20   # closer to paper scale
func runExperiments(args []string) {
	fs := newFlagSet()
	var (
		exp      = fs.String("exp", "all", "experiment to run: "+strings.Join(report.Names(), ", ")+", or all")
		accesses = accessesFlag(fs, 3000, "LLC misses per (workload, scheme) run")
		levels   = levelsFlag(fs, "ORAM tree height L (paper: 23)", 16)
	)
	fs.Parse(args)
	o := report.Default()
	o.Accesses = *accesses
	o.Levels = levels.one("levels")
	names := report.Names()
	if *exp != "all" {
		names = []string{*exp}
	}
	start := time.Now()
	tabs, sims, err := report.Run(o, names...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("==> %d simulations on %d workers in %.1fs\n", len(sims.Cells), sims.Workers, time.Since(start).Seconds())
	for i, name := range names {
		fmt.Printf("==> %s\n%s\n", name, tabs[i])
	}
}

// runTrace generates and inspects workload trace files in the
// repository's binary trace format.
//
//	psoram trace gen -workload 429.mcf -n 100000 -o mcf.psot
//	psoram trace info mcf.psot
func runTrace(args []string) {
	switch {
	case len(args) >= 1 && args[0] == "gen":
		fs := newFlagSet()
		workload := workloadFlag(fs)
		n := fs.Int("n", 100000, "records to generate")
		seed := seedFlag(fs)
		out := fs.String("o", "", "output file (required)")
		fs.Parse(args[1:])
		if *out == "" {
			fatal(fmt.Errorf("-o is required"))
		}
		if *n < 1 {
			fatal(fmt.Errorf("need at least 1 record, got %d", *n))
		}
		w, err := trace.ByName(*workload)
		if err != nil {
			fatal(err)
		}
		recs := trace.NewGenerator(w, *seed, 0).Generate(*n)
		if err := trace.Save(*out, recs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d records of %s (measured MPKI %.2f, target %.2f) to %s\n",
			len(recs), w.Name, trace.MeasuredMPKI(recs), w.MPKI, *out)
	case len(args) == 2 && args[0] == "info":
		recs, err := trace.Load(args[1])
		if err != nil {
			fatal(err)
		}
		var writes, instr, maxAddr uint64
		distinct := make(map[uint64]bool)
		for _, r := range recs {
			if r.Write {
				writes++
			}
			instr += r.InstrGap
			distinct[r.Addr] = true
			maxAddr = max(maxAddr, r.Addr)
		}
		fmt.Printf("records:        %d\n", len(recs))
		fmt.Printf("instructions:   %d\n", instr)
		fmt.Printf("MPKI:           %.2f\n", trace.MeasuredMPKI(recs))
		fmt.Printf("write fraction: %.3f\n", float64(writes)/float64(len(recs)))
		fmt.Printf("distinct addrs: %d\n", len(distinct))
		fmt.Printf("max addr:       %d\n", maxAddr)
	default:
		fmt.Fprintln(os.Stderr, `usage:
  psoram trace gen -workload <name> -n <records> [-seed N] -o <file>
  psoram trace info <file>`)
		os.Exit(2)
	}
}
