package report

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// tiny returns options scaled for unit tests.
func tiny() Options {
	o := Default()
	o.Accesses = 300
	o.Levels = 10
	o.Workloads = trace.Table4()[:3]
	return o
}

// render runs the named experiments at o's scale.
func render(t *testing.T, o Options, names ...string) []*stats.Table {
	t.Helper()
	tabs, _, err := Run(o, names...)
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

func TestFigure5aShape(t *testing.T) {
	tab := render(t, tiny(), "fig5a")[0]
	s := tab.String()
	if tab.NumRows() != 4 { // 3 workloads + geomean
		t.Fatalf("rows = %d, want 4\n%s", tab.NumRows(), s)
	}
	for _, col := range []string{"Baseline", "FullNVM", "PS-ORAM", "geomean"} {
		if !strings.Contains(s, col) {
			t.Errorf("missing %q in:\n%s", col, s)
		}
	}
	// Parse the geomean row: columns Baseline=1.000, then slowdowns > 1.
	gm := lastRowFloats(t, s)
	if len(gm) < 4 {
		t.Fatalf("geomean row too short: %v", gm)
	}
	for i, v := range gm {
		if v < 1.0 {
			t.Errorf("geomean column %d = %.3f < 1 (all schemes slow down vs baseline)", i, v)
		}
	}
}

func TestFigure5bShape(t *testing.T) {
	tab := render(t, tiny(), "fig5b")[0]
	gm := lastRowFloats(t, tab.String())
	// Columns: Baseline(1.0), Rcr-Baseline, Rcr-PS-ORAM, ratio.
	if len(gm) != 4 {
		t.Fatalf("geomean row: %v", gm)
	}
	if gm[1] <= 1.1 {
		t.Errorf("Rcr-Baseline geomean %.3f should be well above 1 (paper: ~1.69)", gm[1])
	}
	if gm[2] <= gm[1] {
		t.Errorf("Rcr-PS-ORAM (%.3f) should exceed Rcr-Baseline (%.3f)", gm[2], gm[1])
	}
	if gm[3] < 1.0 || gm[3] > 1.3 {
		t.Errorf("Rcr-PS/Rcr-Base ratio %.3f should be a small overhead (paper: 1.0365)", gm[3])
	}
}

func TestFigure6Shape(t *testing.T) {
	tabs := render(t, tiny(), "fig6a", "fig6b")
	r := lastRowFloats(t, tabs[0].String())
	w := lastRowFloats(t, tabs[1].String())
	// Columns: Baseline, FullNVM, Naive, PS, Rcr-Base, Rcr-PS.
	if r[3] < 0.95 || r[3] > 1.1 {
		t.Errorf("PS-ORAM read traffic %.3f, want ~1.0", r[3])
	}
	if r[4] < 1.3 {
		t.Errorf("Rcr-Baseline read traffic %.3f, want well above 1 (paper: ~1.9)", r[4])
	}
	if w[2] < 1.5 {
		t.Errorf("Naive write traffic %.3f, want ~2.0", w[2])
	}
	if w[3] < 1.0 || w[3] > 1.2 {
		t.Errorf("PS-ORAM write traffic %.3f, want ~1.05", w[3])
	}
	if w[5] <= w[4] {
		t.Errorf("Rcr-PS writes (%.3f) should exceed Rcr-Baseline (%.3f)", w[5], w[4])
	}
}

func TestFigure7Shape(t *testing.T) {
	tab := render(t, tiny(), "fig7")[0]
	lines := dataLines(tab.String())
	if len(lines) != 3 {
		t.Fatalf("want 3 channel rows:\n%s", tab.String())
	}
	// PS-ORAM column (index 2 after Channels) must shrink with channels.
	psOne := fields(t, lines[0])[2]
	psTwo := fields(t, lines[1])[2]
	psFour := fields(t, lines[2])[2]
	if !(psTwo < psOne && psFour <= psTwo) {
		t.Errorf("PS-ORAM normalized time should fall with channels: %v %v %v", psOne, psTwo, psFour)
	}
}

func TestORAMCost(t *testing.T) {
	tab := render(t, tiny(), "oramcost")[0]
	s := tab.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "geomean") {
		t.Fatalf("unexpected table:\n%s", s)
	}
}

func TestTable1And2Render(t *testing.T) {
	tabs := render(t, tiny(), "table1", "table2")
	t1 := tabs[0].String()
	for _, want := range []string{"11.839", "11.228", "SRAM"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := tabs[1].String()
	for _, want := range []string{"eADR-ORAM", "PS-ORAM (96 entries)", "PS-ORAM (4 entries)", "J"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

func TestCrashMatrix(t *testing.T) {
	tab := render(t, tiny(), "crash")[0]
	s := tab.String()
	// PS-ORAM must be marked consistent, Baseline must corrupt.
	for _, line := range dataLines(s) {
		if strings.HasPrefix(line, "PS-ORAM ") && !strings.Contains(line, "CRASH CONSISTENT") {
			t.Errorf("PS-ORAM row wrong: %s", line)
		}
		if strings.HasPrefix(line, "Baseline") && !strings.Contains(line, "CORRUPTS") {
			t.Errorf("Baseline row wrong: %s", line)
		}
	}
}

func TestLifetime(t *testing.T) {
	tab := render(t, tiny(), "lifetime")[0]
	s := tab.String()
	for _, want := range []string{"PS-ORAM", "FullNVM", "Writes/access"} {
		if !strings.Contains(s, want) {
			t.Errorf("lifetime table missing %q:\n%s", want, s)
		}
	}
	// PS-ORAM's "vs Baseline" column must be close to 1, FullNVM's ~2.
	for _, line := range dataLines(s) {
		f := fields(t, line)
		if len(f) < 4 {
			continue
		}
		ratio := f[2]
		if strings.HasPrefix(line, "PS-ORAM ") && (ratio < 0.95 || ratio > 1.15) {
			t.Errorf("PS-ORAM lifetime ratio %.3f, want ~1", ratio)
		}
		if strings.HasPrefix(line, "FullNVM") && ratio < 1.5 {
			t.Errorf("FullNVM lifetime ratio %.3f, want ~2", ratio)
		}
	}
}

func TestRecovery(t *testing.T) {
	tab := render(t, tiny(), "recovery")[0]
	lines := dataLines(tab.String())
	if len(lines) != 3 {
		t.Fatalf("want 3 size rows:\n%s", tab.String())
	}
	// Recovery reads scale with ORAM size.
	prev := 0.0
	for _, l := range lines {
		f := fields(t, l)
		if len(f) < 3 || f[1] <= prev {
			t.Fatalf("recovery reads not increasing: %v", lines)
		}
		prev = f[1]
	}
}

// TestRunSimulatesEachCellOnce renders every experiment at tiny scale on
// one and on four cores: the tables must not depend on the pool, and the
// union of the cells they read (8 schemes on 1 channel, 4 on 2, 5 on 4)
// must be simulated once each, 17 a workload.
func TestRunSimulatesEachCellOnce(t *testing.T) {
	o := tiny()
	all := func(procs int) (string, int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tabs, sims, err := Run(o, Names()...)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.String())
		}
		return b.String(), len(sims.Cells)
	}
	one, n := all(1)
	four, _ := all(4)
	if one != four {
		t.Errorf("tables differ between GOMAXPROCS 1 and 4:\n%s\n---\n%s", one, four)
	}
	if want := 17 * len(o.Workloads); n != want {
		t.Errorf("%d simulations for %d workloads, want %d", n, len(o.Workloads), want)
	}
}

// --- helpers ---

func dataLines(s string) []string {
	var out []string
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Skip title, header, separator.
	for i, l := range lines {
		if i < 3 || strings.TrimSpace(l) == "" {
			continue
		}
		out = append(out, l)
	}
	return out
}

func fields(t *testing.T, line string) []float64 {
	t.Helper()
	var out []float64
	for _, f := range strings.Fields(line) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func lastRowFloats(t *testing.T, s string) []float64 {
	t.Helper()
	lines := dataLines(s)
	if len(lines) == 0 {
		t.Fatalf("no data rows in:\n%s", s)
	}
	return fields(t, lines[len(lines)-1])
}

func TestLatency(t *testing.T) {
	tab := render(t, tiny(), "latency")[0]
	s := tab.String()
	for _, want := range []string{"NonORAM", "PS-ORAM", "P99"} {
		if !strings.Contains(s, want) {
			t.Errorf("latency table missing %q:\n%s", want, s)
		}
	}
	// NonORAM must be far faster than any ORAM scheme.
	lines := dataLines(s)
	non := fields(t, lines[0])
	base := fields(t, lines[1])
	if len(non) < 2 || len(base) < 2 || non[0]*3 > base[0] {
		t.Errorf("NonORAM mean %v should be far below Baseline %v", non, base)
	}
}

func TestStashPressure(t *testing.T) {
	tab := render(t, tiny(), "stash")[0]
	lines := dataLines(tab.String())
	if len(lines) != 4 {
		t.Fatalf("want 4 utilization rows:\n%s", tab.String())
	}
	// 50% must be stable (the paper's operating point).
	if !strings.Contains(lines[1], "stable") {
		t.Errorf("50%% utilization not stable: %s", lines[1])
	}
	// Pressure must not decrease with utilization.
	prev := -1.0
	for _, l := range lines[:3] { // the last row may error out early
		f := fields(t, l)
		if len(f) < 3 {
			t.Fatalf("row too short: %s", l)
		}
		if f[2] < prev {
			t.Errorf("stash peak decreased with utilization:\n%s", tab.String())
		}
		prev = f[2]
	}
}
