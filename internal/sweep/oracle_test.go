package sweep

import (
	"context"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/oram"
	"repro/internal/trace"
)

func oracleTestGrid(t testing.TB) Grid {
	w1, err := trace.ByName("401.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := trace.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	return Grid{
		Schemes:   config.Schemes(),
		Workloads: []trace.Workload{w1, w2},
		Accesses:  400,
		Levels:    12,
		Oracle:    true,
	}
}

// TestOracleGridNoStashOverflow runs the full scheme set with per-cell
// oracle validation on and asserts that no cell fails — in particular
// that the typed oram.ErrStashOverflow never surfaces at the default
// sizing (the satellite guarantee: the shipped configuration does not
// overflow its stash).
func TestOracleGridNoStashOverflow(t *testing.T) {
	res, err := Run(context.Background(), oracleTestGrid(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range res.Cells {
		if errors.Is(cr.Err, oram.ErrStashOverflow) {
			t.Errorf("cell %s overflowed its stash: %v", cr.Cell, cr.Err)
			continue
		}
		if cr.Err != nil || cr.Skipped {
			t.Errorf("cell %s failed: err=%v skipped=%v", cr.Cell, cr.Err, cr.Skipped)
			continue
		}
		switch {
		case cr.Oracle == nil:
			t.Errorf("cell %s ran without an oracle outcome", cr.Cell)
		case cr.Cell.Scheme == config.SchemeNonORAM:
			if !cr.Oracle.Skipped {
				t.Errorf("NonORAM cell %s should record a skipped oracle outcome", cr.Cell)
			}
		default:
			if cr.Oracle.Skipped {
				t.Errorf("cell %s skipped its oracle run", cr.Cell)
			}
			if cr.Oracle.Violations != 0 {
				t.Errorf("cell %s: %d violation(s), first: %s", cr.Cell, cr.Oracle.Violations, cr.Oracle.First)
			}
			if cr.Oracle.Ops == 0 {
				t.Errorf("cell %s: oracle drove no ops", cr.Cell)
			}
		}
	}
}

// TestOracleObserverKeepsResultsIdentical pins that turning the oracle
// on does not perturb the timing results: the observer only reads
// already-computed leaves, so metrics must match the oracle-off run
// byte for byte (the property that keeps the golden suite valid).
func TestOracleObserverKeepsResultsIdentical(t *testing.T) {
	g := oracleTestGrid(t)
	g.Schemes = []config.Scheme{config.SchemePSORAM, config.SchemeRcrPSORAM}
	withOracle, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.Oracle = false
	without, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(withOracle.Cells) != len(without.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(withOracle.Cells), len(without.Cells))
	}
	for i := range withOracle.Cells {
		a, b := withOracle.Cells[i], without.Cells[i]
		if a.Result != b.Result {
			t.Errorf("cell %s: results diverge with the observer on:\n  on:  %+v\n  off: %+v", a.Cell, a.Result, b.Result)
		}
	}
}

// BenchmarkOracleOverhead measures the per-cell cost of the functional
// validator: the same single-cell sweep with the oracle off and on.
func BenchmarkOracleOverhead(b *testing.B) {
	w, err := trace.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		oracle bool
	}{
		{"oracle-off", false},
		{"oracle-on", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := Grid{
					Schemes:   []config.Scheme{config.SchemePSORAM},
					Workloads: []trace.Workload{w},
					Accesses:  1500,
					Levels:    12,
					Oracle:    mode.oracle,
				}
				res, err := Run(context.Background(), g, Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if ferr := res.FirstError(); ferr != nil {
					b.Fatal(ferr)
				}
			}
		})
	}
}
