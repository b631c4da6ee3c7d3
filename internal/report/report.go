// Package report runs the paper's experiments and renders their tables
// and figure series. Each experiment in the registry below regenerates
// one artifact of §5.2 (or §4.2.4, §5.1) and names the timing
// simulations it reads. Run simulates the union of those cells once, on
// sweep's worker pool, and renders every table from that one result;
// `psoram experiments` and psoram.RunExperiment both go through it.
package report

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/energy"
	"repro/internal/oram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Options scales the experiment runs.
type Options struct {
	Cfg config.Config
	// Accesses is the LLC-miss count simulated per (workload, scheme).
	// The paper simulates 5M instructions per simpoint; relative results
	// stabilize within a few thousand ORAM accesses.
	Accesses int
	// Levels is the simulated tree height (paper: 23; smaller values
	// keep runs quick without reordering any scheme).
	Levels int
	// Workloads defaults to the full Table 4 set.
	Workloads []trace.Workload
}

// Default returns quick-run options (a subset-scale Table 3 system).
func Default() Options {
	return Options{
		Cfg:       config.Default(),
		Accesses:  3000,
		Levels:    16,
		Workloads: trace.Table4(),
	}
}

// experiment is one artifact of the paper: the simulations it reads and
// how it renders them. Its schemes run on every workload (on the first
// only, if firstOnly) at each of its channel counts (none: o.Cfg.Channels).
type experiment struct {
	name      string
	schemes   []config.Scheme
	channels  []int
	firstOnly bool
	render    renderer
}

// renderer draws an experiment's table from its schemes' cells.
type renderer func(o Options, schemes []config.Scheme, get lookup) (*stats.Table, error)

// experiments is the registry, in the order Names lists it.
var experiments = []experiment{
	{name: "table1", render: table1},
	{name: "table2", render: table2},
	{name: "fig5a", render: normalized("Figure 5(a): normalized execution time (non-recursive, 1 channel)",
		func(r sim.Result) uint64 { return r.Cycles }), channels: []int{1}, schemes: []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeFullNVMSTT,
		config.SchemeNaivePSORAM, config.SchemePSORAM,
	}},
	{name: "fig5b", render: figure5b, channels: []int{1}, schemes: []config.Scheme{
		config.SchemeBaseline, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}},
	{name: "fig6a", render: normalized("Figure 6: normalized NVM read traffic (1 channel)",
		func(r sim.Result) uint64 { return r.Reads }), channels: []int{1}, schemes: fig6Schemes},
	{name: "fig6b", render: normalized("Figure 6: normalized NVM write traffic (1 channel)",
		func(r sim.Result) uint64 { return r.Writes }), channels: []int{1}, schemes: fig6Schemes},
	{name: "fig7", render: figure7, channels: []int{1, 2, 4}, schemes: []config.Scheme{
		config.SchemeBaseline, config.SchemePSORAM,
		config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}},
	{name: "oramcost", render: oramCost, channels: []int{1, 4}, schemes: []config.Scheme{
		config.SchemeNonORAM, config.SchemeBaseline,
	}},
	{name: "crash", render: crashMatrix},
	{name: "lifetime", render: lifetime, schemes: fig6Schemes},
	{name: "recovery", render: recovery},
	{name: "latency", render: latency, firstOnly: true, schemes: append([]config.Scheme{config.SchemeNonORAM}, fig6Schemes...)},
	{name: "stash", render: stashPressure},
}

// fig6Schemes are the schemes of Figure 6 and of the lifetime study;
// the latency study adds NonORAM.
var fig6Schemes = []config.Scheme{
	config.SchemeBaseline, config.SchemeFullNVM, config.SchemeNaivePSORAM,
	config.SchemePSORAM, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
}

// Names lists the experiments.
func Names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// lookup returns one simulated cell of a Run.
type lookup func(s config.Scheme, w trace.Workload, channels int) sim.Result

// Run renders the named experiments, in order. It first simulates the
// union of the cells they read, each once, on sweep's worker pool and
// under o.Cfg.Seed, and returns that sweep too.
func Run(o Options, names ...string) ([]*stats.Table, *sweep.Results, error) {
	if o.Accesses < 1 {
		return nil, nil, fmt.Errorf("need at least 1 access, got %d", o.Accesses)
	}
	if len(o.Workloads) == 0 {
		o.Workloads = trace.Table4()
	}
	exps := make([]experiment, len(names))
	var cells []sweep.Cell
	for i, name := range names {
		j := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if j < 0 {
			return nil, nil, fmt.Errorf("report: unknown experiment %q (have %v)", name, Names())
		}
		e := experiments[j]
		exps[i] = e
		ws, chs := o.Workloads, e.channels
		if e.firstOnly {
			ws = ws[:1]
		}
		if chs == nil {
			chs = []int{o.Cfg.Channels}
		}
		for _, w := range ws {
			for _, ch := range chs {
				for _, s := range e.schemes {
					if c := (sweep.Cell{Scheme: s, Workload: w, Channels: ch, Seed: o.Cfg.Seed}); !slices.Contains(cells, c) {
						cells = append(cells, c)
					}
				}
			}
		}
	}
	g := sweep.Grid{Accesses: o.Accesses, Levels: o.Levels, Cfg: o.Cfg}
	sims, err := sweep.RunCells(context.Background(), g, cells, sweep.Options{})
	if err == nil {
		err = sims.FirstError()
	}
	if err != nil {
		return nil, nil, err
	}
	byCell := make(map[sweep.Cell]sim.Result, len(cells))
	for _, c := range sims.Cells {
		byCell[c.Cell] = c.Result
	}
	get := func(s config.Scheme, w trace.Workload, channels int) sim.Result {
		return byCell[sweep.Cell{Scheme: s, Workload: w, Channels: channels, Seed: o.Cfg.Seed}]
	}
	tabs := make([]*stats.Table, len(exps))
	for i, e := range exps {
		if tabs[i], err = e.render(o, e.schemes, get); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return tabs, sims, nil
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// normalized renders Fig. 5(a) (metric: cycles, the normalized
// execution time of the non-recursive schemes) and Fig. 6 (NVM read or
// write traffic): per workload, each scheme's metric on 1 channel over
// Baseline's, plus the geomean row.
func normalized(title string, metric func(sim.Result) uint64) renderer {
	return func(o Options, schemes []config.Scheme, get lookup) (*stats.Table, error) {
		cols := []string{"Workload"}
		for _, s := range schemes {
			cols = append(cols, s.String())
		}
		tab := stats.NewTable(title, cols...)
		sums := make(map[config.Scheme][]float64)
		for _, w := range o.Workloads {
			base := float64(metric(get(config.SchemeBaseline, w, 1)))
			row := []string{w.Name, "1.000"}
			for _, s := range schemes[1:] {
				v := float64(metric(get(s, w, 1))) / base
				row = append(row, f3(v))
				sums[s] = append(sums[s], v)
			}
			tab.AddRow(row...)
		}
		mean := []string{"geomean", "1.000"}
		for _, s := range schemes[1:] {
			mean = append(mean, f3(stats.GeoMean(sums[s])))
		}
		tab.AddRow(mean...)
		return tab, nil
	}
}

// figure5b reproduces Fig. 5(b): recursive schemes normalized to the
// non-recursive Baseline, plus the Rcr-PS-ORAM overhead over
// Rcr-Baseline that the paper quotes (3.65%).
func figure5b(o Options, _ []config.Scheme, get lookup) (*stats.Table, error) {
	tab := stats.NewTable("Figure 5(b): normalized execution time (recursive, 1 channel)",
		"Workload", "Baseline", "Rcr-Baseline", "Rcr-PS-ORAM", "Rcr-PS/Rcr-Base")
	var rb, rp, rr []float64
	for _, w := range o.Workloads {
		base := get(config.SchemeBaseline, w, 1)
		b := get(config.SchemeRcrBaseline, w, 1).Slowdown(base)
		p := get(config.SchemeRcrPSORAM, w, 1).Slowdown(base)
		tab.AddRow(w.Name, "1.000", f3(b), f3(p), f3(p/b))
		rb = append(rb, b)
		rp = append(rp, p)
		rr = append(rr, p/b)
	}
	tab.AddRow("geomean", "1.000", f3(stats.GeoMean(rb)), f3(stats.GeoMean(rp)), f3(stats.GeoMean(rr)))
	return tab, nil
}

// figure7 reproduces Fig. 7: multi-channel performance. Values are
// normalized to each scheme's own single-channel run (higher channel
// counts < 1.0), plus the PS-vs-Baseline gap per channel count.
func figure7(o Options, schemes []config.Scheme, get lookup) (*stats.Table, error) {
	tab := stats.NewTable("Figure 7: multi-channel performance (geomean across workloads)",
		"Channels", "Baseline", "PS-ORAM", "Rcr-Baseline", "Rcr-PS-ORAM", "PS/Base", "RcrPS/RcrBase")
	cycles := func(s config.Scheme, w trace.Workload, ch int) float64 { return float64(get(s, w, ch).Cycles) }
	for _, ch := range []int{1, 2, 4} {
		cols := []string{fmt.Sprintf("%d", ch)}
		var psGap, rcrGap []float64
		for _, s := range schemes {
			var ratios []float64
			for _, w := range o.Workloads {
				ratios = append(ratios, cycles(s, w, ch)/cycles(s, w, 1))
			}
			cols = append(cols, f3(stats.GeoMean(ratios)))
		}
		for _, w := range o.Workloads {
			psGap = append(psGap, cycles(config.SchemePSORAM, w, ch)/cycles(config.SchemeBaseline, w, ch))
			rcrGap = append(rcrGap, cycles(config.SchemeRcrPSORAM, w, ch)/cycles(config.SchemeRcrBaseline, w, ch))
		}
		cols = append(cols, f3(stats.GeoMean(psGap)), f3(stats.GeoMean(rcrGap)))
		tab.AddRow(cols...)
	}
	return tab, nil
}

// oramCost reproduces the §5.1 observation: the cost of ORAM itself
// versus a non-ORAM NVM system, on 1 and 4 channels.
func oramCost(o Options, _ []config.Scheme, get lookup) (*stats.Table, error) {
	tab := stats.NewTable("ORAM cost vs non-ORAM NVM (execution-time ratio)",
		"Workload", "1-channel", "4-channel")
	ratio := func(w trace.Workload, ch int) float64 {
		return float64(get(config.SchemeBaseline, w, ch).Cycles) / float64(get(config.SchemeNonORAM, w, ch).Cycles)
	}
	var r1s, r4s []float64
	for _, w := range o.Workloads {
		r1, r4 := ratio(w, 1), ratio(w, 4)
		tab.AddRow(w.Name, fmt.Sprintf("%.1fx", r1), fmt.Sprintf("%.1fx", r4))
		r1s = append(r1s, r1)
		r4s = append(r4s, r4)
	}
	tab.AddRow("geomean", fmt.Sprintf("%.1fx", stats.GeoMean(r1s)), fmt.Sprintf("%.1fx", stats.GeoMean(r4s)))
	return tab, nil
}

// table1 renders the energy cost constants.
func table1(Options, []config.Scheme, lookup) (*stats.Table, error) {
	m := energy.Table1()
	tab := stats.NewTable("Table 1: energy cost estimation (crash draining)", "Operation", "Energy cost")
	tab.AddRow("Accessing data from SRAM", fmt.Sprintf("%.0f pJ/Byte", m.SRAMAccessPJPerByte))
	tab.AddRow("Moving data from L1D to NVM", fmt.Sprintf("%.3f nJ/Byte", m.L1ToNVMnJPerByte))
	tab.AddRow("Moving data from L2/stash/PosMap/WPQs to NVM", fmt.Sprintf("%.3f nJ/Byte", m.L2ToNVMnJPerByte))
	return tab, nil
}

// table2 renders the draining energy/time comparison.
func table2(Options, []config.Scheme, lookup) (*stats.Table, error) {
	m := energy.Table1()
	f96 := energy.Table2Footprint(96, 96)
	f4 := energy.Table2Footprint(4, 4)
	eadrORAM := m.EADRORAM(f96)
	eadrCache := m.EADRCache(f96)
	ps96 := m.PSORAM(f96)
	ps4 := m.PSORAM(f4)
	tab := stats.NewTable("Table 2: estimated draining energy and time (PS-ORAM vs eADR)",
		"System", "Energy", "Time", "Energy vs PS-ORAM(96)")
	row := func(name string, c energy.Cost) {
		r := energy.Ratio(c, ps96)
		ratio := fmt.Sprintf("%.0fx", r)
		if r < 10 {
			ratio = fmt.Sprintf("%.2fx", r)
		}
		tab.AddRow(name, fmtEnergy(c.EnergyJ), fmtTime(c.TimeS), ratio)
	}
	row("eADR-cache", eadrCache)
	row("eADR-ORAM", eadrORAM)
	row("PS-ORAM (96 entries)", ps96)
	row("PS-ORAM (4 entries)", ps4)
	return tab, nil
}

func fmtEnergy(j float64) string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3f J", j)
	case j >= 1e-3:
		return fmt.Sprintf("%.3f mJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3f uJ", j*1e6)
	default:
		return fmt.Sprintf("%.3f nJ", j*1e9)
	}
}

func fmtTime(s float64) string {
	switch {
	case s >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3f us", s*1e6)
	default:
		return fmt.Sprintf("%.3f ns", s*1e9)
	}
}

// latency reports the per-access latency distribution of each scheme —
// mean, median, and tail — on one representative workload. The paper
// reports only means; the tail is where the WPQ backpressure and the
// recursive chain show up.
func latency(o Options, schemes []config.Scheme, get lookup) (*stats.Table, error) {
	w := o.Workloads[0]
	tab := stats.NewTable(
		fmt.Sprintf("Access latency distribution on %s (core cycles)", w.Name),
		"Scheme", "Mean", "P50", "P99", "Max")
	for _, s := range schemes {
		res := get(s, w, o.Cfg.Channels)
		tab.AddRow(s.String(),
			fmt.Sprintf("%.0f", res.LatencyMean),
			fmt.Sprintf("%d", res.LatencyP50),
			fmt.Sprintf("%d", res.LatencyP99),
			fmt.Sprintf("%d", res.LatencyMax))
	}
	return tab, nil
}

// lifetime runs the NVM-lifetime study behind the abstract's "friendly
// to NVM lifetime" claim: per scheme, the write traffic each ORAM access
// imposes on the NVM (writes wear PCM cells out) and the wear imbalance
// across banks.
func lifetime(o Options, schemes []config.Scheme, get lookup) (*stats.Table, error) {
	tab := stats.NewTable("NVM lifetime: write pressure per ORAM access (workload geomean)",
		"Scheme", "Writes/access", "KB written/access", "vs Baseline", "Wear max/min")
	var baseWrites float64
	for _, s := range schemes {
		var wAcc, bAcc, wear []float64
		for _, w := range o.Workloads {
			res := get(s, w, o.Cfg.Channels)
			wAcc = append(wAcc, float64(res.Writes)/float64(res.Accesses))
			bAcc = append(bAcc, float64(res.BytesWritten)/float64(res.Accesses)/1024)
			wear = append(wear, res.WearImbalance)
		}
		gw := stats.GeoMean(wAcc)
		if s == config.SchemeBaseline {
			baseWrites = gw
		}
		tab.AddRow(s.String(),
			fmt.Sprintf("%.1f", gw),
			fmt.Sprintf("%.2f", stats.GeoMean(bAcc)),
			fmt.Sprintf("%.3f", gw/baseWrites),
			fmt.Sprintf("%.2f", stats.GeoMean(wear)))
	}
	return tab, nil
}

// recovery measures the §4.3 recovery procedure's cost: simulated cycles
// and NVM reads to restore a crashed controller, as a function of the
// ORAM size. PS-ORAM recovery is one sequential PosMap sweep.
func recovery(Options, []config.Scheme, lookup) (*stats.Table, error) {
	tab := stats.NewTable("Recovery cost after a power failure (PS-ORAM)",
		"Logical blocks", "NVM reads", "Cycles", "us @3.2GHz")
	for _, blocks := range []uint64{64, 256, 1024} {
		cfg := config.Default()
		cfg.StashEntries = 300
		ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: blocks})
		if err != nil {
			return nil, err
		}
		// Run a few accesses, crash between accesses, recover.
		for i := 0; i < 8; i++ {
			if _, err := ctl.Access(oram.OpRead, oram.Addr(uint64(i)%blocks), nil); err != nil {
				return nil, err
			}
		}
		ctl.CrashAt = func(core.CrashPoint) bool { return true }
		if _, err := ctl.Access(oram.OpRead, 0, nil); err != core.ErrCrashed {
			return nil, fmt.Errorf("report: crash injector did not fire: %v", err)
		}
		ctl.CrashAt = nil
		before := ctl.Now()
		if err := ctl.Recover(); err != nil {
			return nil, err
		}
		cycles := uint64(ctl.Now() - before)
		tab.AddRow(
			fmt.Sprintf("%d", blocks),
			fmt.Sprintf("%d", ctl.Counters().Get("recovery.nvm_reads")),
			fmt.Sprintf("%d", cycles),
			fmt.Sprintf("%.3f", float64(cycles)/3200),
		)
	}
	return tab, nil
}

// stashPressure sweeps ORAM utilization and reports stash occupancy —
// the experiment behind the paper's 50% utilization choice ("to
// minimize the possibility of stash overflow", §5.1). Occupancy is the
// steady-state peak over a random workload on the functional PS-ORAM
// controller.
func stashPressure(Options, []config.Scheme, lookup) (*stats.Table, error) {
	tab := stats.NewTable("Stash pressure vs ORAM utilization (PS-ORAM, L=6, 2000 accesses)",
		"Utilization", "Blocks", "Stash peak", "Pending peak", "Verdict")
	const levels = 6
	slots := oram.NewTree(levels, 4).Slots()
	for _, util := range []float64{0.3, 0.5, 0.7, 0.9} {
		blocks := uint64(float64(slots) * util)
		cfg := config.Default()
		cfg.StashEntries = 600
		cfg.TempPosMapSize = 400
		ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: blocks, Levels: levels})
		if err != nil {
			return nil, err
		}
		rngState := uint64(13)
		next := func(n int) int {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return int((rngState >> 33) % uint64(n))
		}
		peak, pendPeak := 0, 0
		overflowed := false
		for i := 0; i < 2000; i++ {
			if _, err := ctl.Access(oram.OpRead, oram.Addr(next(int(blocks))), nil); err != nil {
				overflowed = true
				break
			}
			if n := ctl.ORAM.Stash.Len(); n > peak {
				peak = n
			}
			if n := ctl.Temp.Len(); n > pendPeak {
				pendPeak = n
			}
		}
		verdict := "stable"
		if overflowed {
			verdict = "OVERFLOWS"
		} else if peak > 3*ctl.ORAM.Tree.PathBlocks() {
			verdict = "pressured"
		}
		tab.AddRow(fmt.Sprintf("%.0f%%", util*100), fmt.Sprintf("%d", blocks),
			fmt.Sprintf("%d", peak), fmt.Sprintf("%d", pendPeak), verdict)
	}
	return tab, nil
}

// crashMatrix runs the §3.3 crash-recoverability study: for each scheme,
// inject a crash at every swept protocol point, recover, and report how
// many points recovered consistently.
func crashMatrix(Options, []config.Scheme, lookup) (*stats.Table, error) {
	r, w, pts := crash.Matrix(50, 11)
	res, err := r.SweepAll(context.Background(), crash.MatrixSchemes(), w, pts, 0)
	if err != nil {
		return nil, err
	}
	return CrashTable(res), nil
}

// CrashTable renders per-scheme crash sweep tallies, one row a scheme.
func CrashTable(results []crash.SweepResult) *stats.Table {
	tab := stats.NewTable("Crash recoverability (injected power failures, recovered state checked value-by-value)",
		"Scheme", "Crash points fired", "Consistent recoveries", "Verdict")
	for _, res := range results {
		tab.AddRow(res.Scheme.String(), fmt.Sprintf("%d", res.Fired), fmt.Sprintf("%d", res.Consistent), res.Verdict())
	}
	return tab
}
