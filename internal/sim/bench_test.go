package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// benchWarmup is how many accesses each benchmark system serves before
// the timer starts: enough for the stash, posted-write queue, and
// occupancy state to reach steady state, so ns/op and allocs/op reflect
// the hot path rather than first-touch growth.
const benchWarmup = 2000

const benchLevels = 12

// benchSim measures steady-state cost per simulated LLC miss for one
// scheme: one System, one synthetic generator, b.N core steps.
func benchSim(b *testing.B, scheme config.Scheme) {
	b.Helper()
	cfg := config.Default()
	cfg.Seed = 1
	w, err := trace.ByName("464.h264ref")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(scheme, cfg, benchLevels)
	if err != nil {
		b.Fatal(err)
	}
	gen := trace.NewGenerator(w, cfg.Seed, sys.NumBlocks())
	core := cpu.New(sys)
	for i := 0; i < benchWarmup; i++ {
		rec := gen.Next()
		if err := core.Step(rec.InstrGap, rec.Addr, rec.Write); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := gen.Next()
		if err := core.Step(rec.InstrGap, rec.Addr, rec.Write); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimBaseline(b *testing.B)    { benchSim(b, config.SchemeBaseline) }
func BenchmarkSimPSORAM(b *testing.B)      { benchSim(b, config.SchemePSORAM) }
func BenchmarkSimNaivePSORAM(b *testing.B) { benchSim(b, config.SchemeNaivePSORAM) }
func BenchmarkSimRcrPSORAM(b *testing.B)   { benchSim(b, config.SchemeRcrPSORAM) }
