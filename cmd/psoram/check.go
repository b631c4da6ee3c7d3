package main

// The checking subcommands: crash, oracle.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/oracle"
	"repro/internal/report"
	"repro/internal/stats"
)

// runCrash is the crash-recoverability matrix (the §3.3 case studies,
// mechanized; paper Table 5): for every scheme, inject a power failure
// at each swept protocol point, recover, and check that the recovered
// store equals the history's prefix i or i+1 (op i in flight). With its
// defaults it prints the published table; -seeds widens the sweep over
// more workloads.
//
//	psoram crash -workers 4
//	psoram crash -schemes PS-ORAM -accesses 100 -seeds 5 -v
func runCrash(args []string) {
	fs := newFlagSet()
	var (
		schemesArg = schemesFlag(fs, "")
		accesses   = accessesFlag(fs, 50, "accesses per crash run")
		seeds      = seedsFlag(fs, "workload seeds to sweep, counting up from 11")
		workers    = workersFlag(fs)
		verbose    = fs.Bool("v", false, "print each failing crash point")
	)
	fs.Parse(args)
	if *seeds < 1 {
		fatal(fmt.Errorf("need at least 1 seed"))
	}
	if *accesses < 2 {
		fatal(fmt.Errorf("need at least 2 accesses, got %d", *accesses))
	}
	schemes := crash.MatrixSchemes()
	if *schemesArg != "" {
		var err error
		if schemes, err = config.ParseSchemes(*schemesArg); err != nil {
			fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		total    []crash.SweepResult
		failures []string
	)
	for seed := uint64(11); seed < 11+uint64(*seeds); seed++ {
		r, w, pts := crash.Matrix(*accesses, seed)
		results, err := r.SweepAll(ctx, schemes, w, pts, *workers)
		if err != nil {
			fatal(err)
		}
		if total == nil {
			total = make([]crash.SweepResult, len(results))
		}
		for i, res := range results {
			total[i].Scheme = res.Scheme
			total[i].Fired += res.Fired
			total[i].Consistent += res.Consistent
			for _, f := range res.Failures {
				failures = append(failures, fmt.Sprintf("  %s, seed %d, %v", res.Scheme, seed, f))
			}
		}
	}
	fmt.Println(report.CrashTable(total))
	if *verbose {
		fmt.Println(strings.Join(failures, "\n"))
	}
	unexpected := false
	for _, res := range total {
		if res.Consistent < res.Fired && res.Scheme.Persistent() {
			unexpected = true
			fmt.Fprintf(os.Stderr, "psoram crash: %s promises crash consistency and corrupted %d of %d points\n",
				res.Scheme, res.Fired-res.Consistent, res.Fired)
		}
	}
	if unexpected {
		os.Exit(2)
	}
}

// runOracle runs the differential oracle and the crash-linearizability
// torture harness (internal/oracle) over any set of schemes: every
// access is diffed against a plain-map reference, structural invariants
// are checked at deep-check boundaries, the leaf sequence is tested for
// uniformity, and (with -crash) every declared crash-injection step is
// fired and the recovered store checked against the reference prefix
// replays.
//
//	psoram oracle                                   # all schemes, 3 workloads, level 10
//	psoram oracle -schemes PS-ORAM,Rcr-PS-ORAM -levels 10,12 -crash
//	psoram oracle -workloads all -ops 256 -json report.json
func runOracle(args []string) {
	fs := newFlagSet()
	var (
		schemesArg   = schemesFlag(fs, "all")
		workloadsArg = workloadsFlag(fs, "uniform,write-heavy,hotspot")
		levels       = levelsFlag(fs, "comma-separated tree heights", 10)
		ops          = fs.Int("ops", 96, "ops per (scheme, workload, level) cell")
		blocks       = blocksFlag(fs, 256)
		seed         = seedFlag(fs)
		crashMode    = fs.Bool("crash", false, "also run crash-linearizability for the persistent schemes")
		storeDir     = storeFlag(fs)
		jsonPath     = jsonFlag(fs)
		list         = listFlag(fs)
	)
	fs.Parse(args)
	if *list {
		var names []string
		for _, w := range oracle.Workloads() {
			names = append(names, w.Name)
		}
		printList("Workloads:", names)
		return
	}
	schemes, err := config.ParseSchemes(*schemesArg)
	if err != nil {
		fatal(err)
	}
	workloads := oracle.Workloads()
	if *workloadsArg != "all" {
		workloads = workloads[:0]
		for _, name := range strings.Split(*workloadsArg, ",") {
			w, err := oracle.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			workloads = append(workloads, w)
		}
	}

	type cellReport struct {
		Scheme   string              `json:"scheme"`
		Workload string              `json:"workload"`
		Levels   int                 `json:"levels"`
		Report   *oracle.Report      `json:"report"`
		Crash    *oracle.CrashReport `json:"crash,omitempty"`
	}
	var (
		cells      []cellReport
		violations int
	)
	tab := stats.NewTable("Differential oracle",
		"Scheme", "Workload", "L", "Ops", "Violations", "Chi2 p", "Crash steps")
	bb := config.Default().BlockBytes
	for _, s := range schemes {
		for _, lv := range *levels {
			for _, w := range workloads {
				genOps := oracle.GenOps(w, *blocks, bb, *ops, *seed)
				p := oracle.Params{Scheme: s, NumBlocks: *blocks, Levels: lv, Seed: *seed}
				if *storeDir != "" {
					if core.StorageSupported(s) != nil {
						continue // the durable backend covers the flat family only
					}
					// One fresh store per cell: recovered state from another
					// cell would fail the from-zero reference diff.
					p.StoreDir = filepath.Join(*storeDir,
						fmt.Sprintf("%s-%s-L%d", sanitize(s.String()), sanitize(w.Name), lv))
				}
				rep, err := oracle.CheckScheme(p, genOps, oracle.Options{})
				if err != nil {
					fatal(err)
				}
				cell := cellReport{Scheme: s.String(), Workload: w.Name, Levels: lv, Report: rep}
				found := rep.Violations

				crashCol := "-"
				if *crashMode && s.Persistent() {
					crep, err := oracle.CheckCrash(p, genOps, oracle.CrashOptions{})
					if err != nil {
						fatal(err)
					}
					cell.Crash = crep
					found = append(found[:len(found):len(found)], crep.Violations...)
					fired, declared := 0, core.DeclaredStepsFor(s)
					for _, step := range declared {
						if crep.StepsFired[step] > 0 {
							fired++
						}
					}
					crashCol = fmt.Sprintf("%d/%d", fired, len(declared))
				}

				chiCol := "skip"
				if !rep.Chi2Skipped {
					chiCol = fmt.Sprintf("%.3g", rep.Chi2P)
				}
				tab.AddRow(cell.Scheme, cell.Workload, strconv.Itoa(lv),
					strconv.Itoa(rep.Ops), strconv.Itoa(len(rep.Violations)), chiCol, crashCol)
				cells = append(cells, cell)
				violations += len(found)
				for _, v := range found {
					fmt.Fprintf(os.Stderr, "psoram oracle: %s/%s/L%d: %s\n", s, w.Name, lv, v)
				}
			}
		}
	}

	fmt.Fprintln(summaryOut(*jsonPath), tab)
	if *jsonPath != "" {
		if err := emitJSON(*jsonPath, cells); err != nil {
			fatal(err)
		}
	}
	if violations > 0 {
		fatal(fmt.Errorf("%d violation(s)", violations))
	}
}

// sanitize maps a scheme/workload name onto a filesystem-safe token.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
