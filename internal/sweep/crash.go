package sweep

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crash"
	"repro/internal/stats"
)

// CrashMatrix describes the crash-torture grid: every scheme crossed
// with every injection point, each cell an independent
// build-run-crash-recover-check experiment (crash.Runner.RunOnce).
type CrashMatrix struct {
	Runner   crash.Runner
	Workload crash.Workload
	Schemes  []config.Scheme
	Points   []core.CrashPoint
}

// DefaultCrashMatrix returns the published study (crash.Matrix at 50
// accesses under seed 11) over crash.MatrixSchemes.
func DefaultCrashMatrix() CrashMatrix {
	r, w, pts := crash.Matrix(50, 11)
	return CrashMatrix{Runner: r, Workload: w, Schemes: crash.MatrixSchemes(), Points: pts}
}

// RunCrashMatrix fans the (scheme × point) grid across the worker pool
// (crash.Runner.SweepAll) and returns per-scheme results in scheme order.
func RunCrashMatrix(ctx context.Context, m CrashMatrix, opt Options) ([]crash.SweepResult, error) {
	var onCell func(done, total int, s config.Scheme, err error)
	if opt.OnResult != nil {
		onCell = func(done, total int, s config.Scheme, err error) {
			opt.OnResult(done, total, CellResult{Cell: Cell{Scheme: s}, Err: err})
		}
	}
	return m.Runner.SweepAll(ctx, m.Schemes, m.Workload, m.Points, opt.Workers, onCell)
}

// CrashTable renders the per-scheme recoverability verdicts.
func CrashTable(results []crash.SweepResult) *stats.Table {
	tab := stats.NewTable("Crash recoverability matrix (parallel sweep)",
		"Scheme", "Crash points fired", "Consistent recoveries", "Verdict")
	for _, r := range results {
		tab.AddRow(r.Scheme.String(), fmt.Sprintf("%d", r.Fired), fmt.Sprintf("%d", r.Consistent), r.Verdict())
	}
	return tab
}
