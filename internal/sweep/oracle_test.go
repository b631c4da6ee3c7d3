package sweep_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/oracle"
	"repro/internal/oram"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// TestOracleGridNoStashOverflow runs the full scheme set over the
// 401.bzip2 and 429.mcf grid and asserts that every timing cell
// finishes, and that each ORAM cell's functional twin — the trace's
// write ratio and hot set over 128 blocks at L=6, 64 ops under the
// cell's derived seed — passes the differential oracle without
// surfacing the typed oram.ErrStashOverflow: the shipped configuration
// does not overflow its stash on the sweep's workloads. The sweep
// itself runs no oracle; the test pairs the two per cell.
func TestOracleGridNoStashOverflow(t *testing.T) {
	w1, err := trace.ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := trace.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Schemes:   config.Schemes(),
		Workloads: []trace.Workload{w1, w2},
		Accesses:  400,
		Levels:    12,
	}
	res, err := sweep.Run(context.Background(), g, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bb := config.Default().BlockBytes
	for _, cr := range res.Cells {
		if cr.Err != nil || cr.Skipped {
			t.Errorf("cell %s failed: err=%v skipped=%v", cr.Cell, cr.Err, cr.Skipped)
			continue
		}
		c := cr.Cell
		if !c.Scheme.Policy().ORAM {
			continue
		}
		w := oracle.Workload{Name: c.Workload.Name, WriteRatio: c.Workload.WriteRatio, HotFraction: c.Workload.HotFraction}
		if w.HotFraction > 0 {
			w.HotBias = 0.8
		}
		ops := oracle.GenOps(w, 128, bb, 64, c.Seed)
		rep, err := oracle.CheckScheme(oracle.Params{Scheme: c.Scheme, NumBlocks: 128, Levels: 6, Seed: c.Seed}, ops, oracle.Options{})
		if errors.Is(err, oram.ErrStashOverflow) {
			t.Errorf("cell %s overflowed its stash: %v", c, err)
			continue
		}
		if err != nil {
			t.Errorf("cell %s: functional twin: %v", c, err)
			continue
		}
		if rep.Ops == 0 {
			t.Errorf("cell %s: oracle drove no ops", c)
		}
		for _, v := range rep.Violations {
			if v.Kind == "overflow" {
				t.Errorf("cell %s overflowed its stash: %s", c, v)
			} else {
				t.Errorf("cell %s: %s", c, v)
			}
		}
	}
}
