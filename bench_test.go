package psoram

// The benchmark harness: one benchmark per table and figure of the
// paper, plus per-access microbenchmarks and the ablations DESIGN.md
// calls out. `go test -bench . -benchmem` runs everything at a reduced
// scale; `psoram experiments` prints the full tables.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchOptions keeps per-iteration experiment cost manageable.
func benchOptions() report.Options {
	o := report.Default()
	o.Accesses = 400
	o.Levels = 10
	o.Workloads = trace.Table4()[:3]
	return o
}

// --- Tables and figures ---

// BenchmarkExperiment renders each experiment alone (one sub-benchmark a
// name: -bench BenchmarkExperiment/fig5a), then all of them from one
// sweep (BenchmarkExperiment/all).
func BenchmarkExperiment(b *testing.B) {
	o := benchOptions()
	run := func(names ...string) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := report.Run(o, names...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, name := range Experiments() {
		b.Run(name, run(name))
	}
	b.Run("all", run(Experiments()...))
}

// --- Per-access microbenchmarks: the functional controller ---

func benchStoreAccess(b *testing.B, scheme Scheme) {
	cfg := config.Default()
	cfg.StashEntries = 150
	s, err := New(256, WithScheme(scheme), WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, s.BlockSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i % 256)
		if i%2 == 0 {
			if err := s.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := s.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAccess measures the functional psoram.Store with the
// same keyspace and tree shape as the serving pool's throughput
// benchmark (512 blocks, 8 levels, PS-ORAM) — the gap between this and
// BenchmarkPoolThroughput is the serving layer's own overhead (queue,
// coalescing, reply, ownership copy), not protocol cost.
func BenchmarkStoreAccess(b *testing.B) {
	s, err := New(512, WithScheme(PSORAM), WithLevels(8), WithRNGSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, s.BlockSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) * 2654435761) % 512
		if i%2 == 0 {
			if err := s.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := s.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAccessDeep is BenchmarkStoreAccess at the height of a
// mem-deep shard (65536 blocks, 16 levels, PS-ORAM), where the image is
// far beyond the CPU caches and the load walk waits on memory; at 8
// levels everything it reads is an L2 hit. Every block is written once
// before timing, then the addresses are uniform and half of them writes.
func BenchmarkStoreAccessDeep(b *testing.B) {
	const blocks = 65536
	s, err := New(blocks, WithScheme(PSORAM), WithLevels(16), WithRNGSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, s.BlockSize())
	for addr := uint64(0); addr < blocks; addr++ {
		if err := s.Write(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := r.Uint64n(blocks)
		if i%2 == 0 {
			if err := s.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
		} else if _, err := s.Read(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStoreAccess is BenchmarkStoreAccess over the durable
// file backend: identical keyspace, tree shape, and scheme, but the
// accesses end with the persist barrier (chunk writes + fsyncs +
// version flip). group=1 is the per-access serial barrier — the gap to
// BenchmarkStoreAccess IS the price of crash consistency on this
// machine's storage stack. group=4/16 amortize that barrier across a
// commit group (one barrier per G accesses, run on the background
// persist worker); the trailing FlushCommits keeps the op count honest.
func BenchmarkFileStoreAccess(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("group=%d", g), func(b *testing.B) {
			s, err := New(512, WithScheme(PSORAM), WithLevels(8), WithRNGSeed(1),
				WithStorePath(b.TempDir()+"/store"), WithGroupCommit(g, 0))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, s.BlockSize())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := (uint64(i) * 2654435761) % 512
				if i%2 == 0 {
					if err := s.Write(addr, buf); err != nil {
						b.Fatal(err)
					}
				} else if _, err := s.Read(addr); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.FlushCommits(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkAccessBaseline(b *testing.B)    { benchStoreAccess(b, Baseline) }
func BenchmarkAccessPSORAM(b *testing.B)      { benchStoreAccess(b, PSORAM) }
func BenchmarkAccessNaivePSORAM(b *testing.B) { benchStoreAccess(b, NaivePSORAM) }
func BenchmarkAccessRcrPSORAM(b *testing.B)   { benchStoreAccess(b, RcrPSORAM) }

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationWPQ compares the one-batch eviction (96-entry WPQs)
// against the ordered multi-batch eviction (4-entry WPQs). The report
// output is the simulated slowdown; the benchmark measures harness cost.
func BenchmarkAblationWPQ(b *testing.B) {
	for _, entries := range []int{4, 16, 96} {
		entries := entries
		b.Run(fmt.Sprintf("wpq%d", entries), func(b *testing.B) {
			cfg := config.Default()
			cfg.StashEntries = 150
			cfg.DataWPQEntries = entries
			cfg.PosMapWPQEntries = entries
			ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: 256, Levels: 7})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, cfg.BlockBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctl.Access(oram.OpWrite, oram.Addr(i%256), buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ctl.Now())/float64(ctl.Accesses()), "simcycles/access")
		})
	}
}

// BenchmarkAblationZ sweeps the bucket size: larger Z shortens the tree
// but widens every path.
func BenchmarkAblationZ(b *testing.B) {
	for _, z := range []int{2, 4, 8} {
		z := z
		b.Run(fmt.Sprintf("z%d", z), func(b *testing.B) {
			cfg := config.Default()
			cfg.Z = z
			cfg.StashEntries = 400
			w, _ := trace.ByName("464.h264ref")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Simulate(context.Background(), sim.Request{Scheme: config.SchemePSORAM, Config: cfg, Workload: w, N: 300, Levels: 12})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles)/float64(res.Accesses), "simcycles/access")
			}
		})
	}
}

// BenchmarkAblationDirtyTracking is the paper's PS-ORAM vs Naïve
// comparison at several tree heights: the benefit of tracking dirty
// PosMap entries grows with L (the Naïve scheme flushes Z*(L+1) entries
// per access).
func BenchmarkAblationDirtyTracking(b *testing.B) {
	for _, levels := range []int{10, 14, 18} {
		levels := levels
		for _, scheme := range []config.Scheme{config.SchemePSORAM, config.SchemeNaivePSORAM} {
			scheme := scheme
			b.Run(fmt.Sprintf("L%d/%v", levels, scheme), func(b *testing.B) {
				cfg := config.Default()
				w, _ := trace.ByName("464.h264ref")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := sim.Simulate(context.Background(), sim.Request{Scheme: scheme, Config: cfg, Workload: w, N: 300, Levels: levels})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Cycles)/float64(res.Accesses), "simcycles/access")
				}
			})
		}
	}
}

// BenchmarkAblationChannels sweeps memory channels for PS-ORAM.
func BenchmarkAblationChannels(b *testing.B) {
	for _, ch := range []int{1, 2, 4} {
		ch := ch
		b.Run(fmt.Sprintf("ch%d", ch), func(b *testing.B) {
			cfg := config.Default()
			cfg.Channels = ch
			w, _ := trace.ByName("401.bzip2")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Simulate(context.Background(), sim.Request{Scheme: config.SchemePSORAM, Config: cfg, Workload: w, N: 300, Levels: 14})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles)/float64(res.Accesses), "simcycles/access")
			}
		})
	}
}

// BenchmarkAblationTreeTopCache sweeps the §4.5 hybrid-memory extension:
// top-K tree levels mirrored in DRAM (write-through, crash-safe).
func BenchmarkAblationTreeTopCache(b *testing.B) {
	for _, k := range []int{0, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("top%d", k), func(b *testing.B) {
			cfg := config.Default()
			cfg.TreeTopCacheLevels = k
			w, _ := trace.ByName("464.h264ref")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Simulate(context.Background(), sim.Request{Scheme: config.SchemePSORAM, Config: cfg, Workload: w, N: 300, Levels: 14})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles)/float64(res.Accesses), "simcycles/access")
			}
		})
	}
}

// BenchmarkCrashRecoverySweep measures the crash-inject/recover/verify
// loop itself.
func BenchmarkCrashRecoverySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := VerifyCrashConsistency(PSORAM, 30, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Consistent != res.Fired {
			b.Fatalf("PS-ORAM inconsistent: %d/%d", res.Consistent, res.Fired)
		}
	}
}

// BenchmarkAccessPSORAMIntegrity prices the Merkle verification and
// crash-consistent root update per access.
func BenchmarkAccessPSORAMIntegrity(b *testing.B) {
	cfg := config.Default()
	cfg.StashEntries = 150
	cfg.Integrity = true
	ctl, err := core.New(config.SchemePSORAM, cfg, core.Options{NumBlocks: 256, Levels: 7})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cfg.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctl.Access(oram.OpWrite, oram.Addr(i%256), buf); err != nil {
			b.Fatal(err)
		}
	}
}
