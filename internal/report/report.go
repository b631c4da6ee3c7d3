// Package report runs the paper's experiments and renders their tables
// and figure series. Each Figure*/Table* function regenerates one
// artifact of §5.2 (or §4.2.4) and returns a text table whose rows match
// what the paper plots; `psoram experiments` and the repository's
// benchmark harness are thin wrappers around these.
package report

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/energy"
	"repro/internal/oram"
	"repro/internal/sim"
	"repro/internal/stats"
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

func (o Options) workloads() []trace.Workload {
	if len(o.Workloads) == 0 {
		return trace.Table4()
	}
	return o.Workloads
}

// runAll executes every workload under each scheme and returns
// results[workload][scheme].
func (o Options) runAll(schemes []config.Scheme, channels int) (map[string]map[config.Scheme]sim.Result, error) {
	cfg := o.Cfg
	cfg.Channels = channels
	out := make(map[string]map[config.Scheme]sim.Result)
	for _, w := range o.workloads() {
		out[w.Name] = make(map[config.Scheme]sim.Result)
		for _, s := range schemes {
			r, err := sim.Simulate(context.Background(), sim.Request{
				Scheme: s, Config: cfg, Workload: w, N: o.Accesses, Levels: o.Levels,
			})
			if err != nil {
				return nil, fmt.Errorf("report: %v on %s: %w", s, w.Name, err)
			}
			out[w.Name][s] = r
		}
	}
	return out, nil
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// Figure5a reproduces Fig. 5(a): normalized execution time of the
// non-recursive schemes (Z=4, 1 channel), per workload plus the mean.
func (o Options) Figure5a() (*stats.Table, error) {
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeFullNVMSTT,
		config.SchemeNaivePSORAM, config.SchemePSORAM,
	}
	res, err := o.runAll(schemes, 1)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Figure 5(a): normalized execution time (non-recursive, 1 channel)",
		"Workload", "Baseline", "FullNVM", "FullNVM(STT)", "Naive-PS-ORAM", "PS-ORAM")
	sums := make(map[config.Scheme][]float64)
	for _, w := range o.workloads() {
		base := res[w.Name][config.SchemeBaseline]
		row := []string{w.Name, "1.000"}
		for _, s := range schemes[1:] {
			sd := res[w.Name][s].Slowdown(base)
			row = append(row, f3(sd))
			sums[s] = append(sums[s], sd)
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

// Figure5b reproduces Fig. 5(b): recursive schemes normalized to the
// non-recursive Baseline, plus the Rcr-PS-ORAM overhead over
// Rcr-Baseline that the paper quotes (3.65%).
func (o Options) Figure5b() (*stats.Table, error) {
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}
	res, err := o.runAll(schemes, 1)
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("Figure 5(b): normalized execution time (recursive, 1 channel)",
		"Workload", "Baseline", "Rcr-Baseline", "Rcr-PS-ORAM", "Rcr-PS/Rcr-Base")
	var rb, rp, rr []float64
	for _, w := range o.workloads() {
		base := res[w.Name][config.SchemeBaseline]
		b := res[w.Name][config.SchemeRcrBaseline].Slowdown(base)
		p := res[w.Name][config.SchemeRcrPSORAM].Slowdown(base)
		tab.AddRow(w.Name, "1.000", f3(b), f3(p), f3(p/b))
		rb = append(rb, b)
		rp = append(rp, p)
		rr = append(rr, p/b)
	}
	tab.AddRow("geomean", "1.000", f3(stats.GeoMean(rb)), f3(stats.GeoMean(rp)), f3(stats.GeoMean(rr)))
	return tab, nil
}

// Figure6 reproduces Fig. 6: NVM read (a) and write (b) traffic,
// normalized to Baseline.
func (o Options) Figure6(writes bool) (*stats.Table, error) {
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeNaivePSORAM,
		config.SchemePSORAM, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}
	res, err := o.runAll(schemes, 1)
	if err != nil {
		return nil, err
	}
	which := "read"
	if writes {
		which = "write"
	}
	tab := stats.NewTable(fmt.Sprintf("Figure 6: normalized NVM %s traffic (1 channel)", which),
		"Workload", "Baseline", "FullNVM", "Naive-PS-ORAM", "PS-ORAM", "Rcr-Baseline", "Rcr-PS-ORAM")
	sums := make(map[config.Scheme][]float64)
	metric := func(r sim.Result) float64 {
		if writes {
			return float64(r.Writes)
		}
		return float64(r.Reads)
	}
	for _, w := range o.workloads() {
		base := metric(res[w.Name][config.SchemeBaseline])
		row := []string{w.Name, "1.000"}
		for _, s := range schemes[1:] {
			v := metric(res[w.Name][s]) / base
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

// Figure7 reproduces Fig. 7: multi-channel performance. Values are
// normalized to each scheme's own single-channel run (higher channel
// counts < 1.0), plus the PS-vs-Baseline gap per channel count.
func (o Options) Figure7() (*stats.Table, error) {
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemePSORAM,
		config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}
	byCh := make(map[int]map[string]map[config.Scheme]sim.Result)
	for _, ch := range []int{1, 2, 4} {
		res, err := o.runAll(schemes, ch)
		if err != nil {
			return nil, err
		}
		byCh[ch] = res
	}
	tab := stats.NewTable("Figure 7: multi-channel performance (geomean across workloads)",
		"Channels", "Baseline", "PS-ORAM", "Rcr-Baseline", "Rcr-PS-ORAM", "PS/Base", "RcrPS/RcrBase")
	for _, ch := range []int{1, 2, 4} {
		var cols []string
		cols = append(cols, fmt.Sprintf("%d", ch))
		var psGap, rcrGap []float64
		for _, s := range schemes {
			var ratios []float64
			for _, w := range o.workloads() {
				one := byCh[1][w.Name][s]
				cur := byCh[ch][w.Name][s]
				ratios = append(ratios, float64(cur.Cycles)/float64(one.Cycles))
			}
			cols = append(cols, f3(stats.GeoMean(ratios)))
		}
		for _, w := range o.workloads() {
			psGap = append(psGap, float64(byCh[ch][w.Name][config.SchemePSORAM].Cycles)/
				float64(byCh[ch][w.Name][config.SchemeBaseline].Cycles))
			rcrGap = append(rcrGap, float64(byCh[ch][w.Name][config.SchemeRcrPSORAM].Cycles)/
				float64(byCh[ch][w.Name][config.SchemeRcrBaseline].Cycles))
		}
		cols = append(cols, f3(stats.GeoMean(psGap)), f3(stats.GeoMean(rcrGap)))
		tab.AddRow(cols...)
	}
	return tab, nil
}

// ORAMCost reproduces the §5.1 observation: the cost of ORAM itself
// versus a non-ORAM NVM system, on 1 and 4 channels.
func (o Options) ORAMCost() (*stats.Table, error) {
	tab := stats.NewTable("ORAM cost vs non-ORAM NVM (execution-time ratio)",
		"Workload", "1-channel", "4-channel")
	var r1s, r4s []float64
	for _, w := range o.workloads() {
		ratios := make(map[int]float64)
		for _, ch := range []int{1, 4} {
			cfg := o.Cfg
			cfg.Channels = ch
			non, err := sim.Simulate(context.Background(), sim.Request{
				Scheme: config.SchemeNonORAM, Config: cfg, Workload: w, N: o.Accesses, Levels: o.Levels,
			})
			if err != nil {
				return nil, err
			}
			base, err := sim.Simulate(context.Background(), sim.Request{
				Scheme: config.SchemeBaseline, Config: cfg, Workload: w, N: o.Accesses, Levels: o.Levels,
			})
			if err != nil {
				return nil, err
			}
			ratios[ch] = float64(base.Cycles) / float64(non.Cycles)
		}
		tab.AddRow(w.Name, fmt.Sprintf("%.1fx", ratios[1]), fmt.Sprintf("%.1fx", ratios[4]))
		r1s = append(r1s, ratios[1])
		r4s = append(r4s, ratios[4])
	}
	tab.AddRow("geomean", fmt.Sprintf("%.1fx", stats.GeoMean(r1s)), fmt.Sprintf("%.1fx", stats.GeoMean(r4s)))
	return tab, nil
}

// Table1 renders the energy cost constants.
func Table1() *stats.Table {
	m := energy.Table1()
	tab := stats.NewTable("Table 1: energy cost estimation (crash draining)", "Operation", "Energy cost")
	tab.AddRow("Accessing data from SRAM", fmt.Sprintf("%.0f pJ/Byte", m.SRAMAccessPJPerByte))
	tab.AddRow("Moving data from L1D to NVM", fmt.Sprintf("%.3f nJ/Byte", m.L1ToNVMnJPerByte))
	tab.AddRow("Moving data from L2/stash/PosMap/WPQs to NVM", fmt.Sprintf("%.3f nJ/Byte", m.L2ToNVMnJPerByte))
	return tab
}

// Table2 renders the draining energy/time comparison.
func Table2() *stats.Table {
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
	return tab
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

// Latency reports the per-access latency distribution of each scheme —
// mean, median, and tail — on one representative workload. The paper
// reports only means; the tail is where the WPQ backpressure and the
// recursive chain show up.
func (o Options) Latency() (*stats.Table, error) {
	w := o.workloads()[0]
	tab := stats.NewTable(
		fmt.Sprintf("Access latency distribution on %s (core cycles)", w.Name),
		"Scheme", "Mean", "P50", "P99", "Max")
	for _, s := range []config.Scheme{
		config.SchemeNonORAM, config.SchemeBaseline, config.SchemeFullNVM,
		config.SchemeNaivePSORAM, config.SchemePSORAM,
		config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	} {
		r, err := sim.Simulate(context.Background(), sim.Request{
			Scheme: s, Config: o.Cfg, Workload: w, N: o.Accesses, Levels: o.Levels,
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow(s.String(),
			fmt.Sprintf("%.0f", r.LatencyMean),
			fmt.Sprintf("%d", r.LatencyP50),
			fmt.Sprintf("%d", r.LatencyP99),
			fmt.Sprintf("%d", r.LatencyMax))
	}
	return tab, nil
}

// Lifetime runs the NVM-lifetime study behind the abstract's "friendly
// to NVM lifetime" claim: per scheme, the write traffic each ORAM access
// imposes on the NVM (writes wear PCM cells out) and the wear imbalance
// across banks.
func (o Options) Lifetime() (*stats.Table, error) {
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeFullNVM, config.SchemeNaivePSORAM,
		config.SchemePSORAM, config.SchemeRcrBaseline, config.SchemeRcrPSORAM,
	}
	tab := stats.NewTable("NVM lifetime: write pressure per ORAM access (workload geomean)",
		"Scheme", "Writes/access", "KB written/access", "vs Baseline", "Wear max/min")
	var baseWrites float64
	for _, s := range schemes {
		var wAcc, bAcc, wear []float64
		for _, w := range o.workloads() {
			cfg := o.Cfg
			r, err := sim.Simulate(context.Background(), sim.Request{
				Scheme: s, Config: cfg, Workload: w, N: o.Accesses, Levels: o.Levels,
			})
			if err != nil {
				return nil, err
			}
			wAcc = append(wAcc, float64(r.Writes)/float64(r.Accesses))
			bAcc = append(bAcc, float64(r.BytesWritten)/float64(r.Accesses)/1024)
			wear = append(wear, r.WearImbalance)
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

// Recovery measures the §4.3 recovery procedure's cost: simulated cycles
// and NVM reads to restore a crashed controller, as a function of the
// ORAM size. PS-ORAM recovery is one sequential PosMap sweep.
func Recovery() (*stats.Table, error) {
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

// StashPressure sweeps ORAM utilization and reports stash occupancy —
// the experiment behind the paper's 50% utilization choice ("to
// minimize the possibility of stash overflow", §5.1). Occupancy is the
// steady-state peak over a random workload on the functional PS-ORAM
// controller.
func StashPressure() (*stats.Table, error) {
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

// CrashMatrix runs the §3.3 crash-recoverability study: for each scheme,
// inject a crash at every swept protocol point, recover, and report how
// many points recovered consistently.
func CrashMatrix() (*stats.Table, error) {
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
