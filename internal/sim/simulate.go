package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// Request describes one timing-simulation run: pick the drive mode by
// filling either Workload (synthetic generator) or Records (trace
// replay), and set ThroughCaches to interpose the Table 3a L1D/L2
// hierarchy.
type Request struct {
	// Scheme selects the persistence protocol under test.
	Scheme config.Scheme
	// Config is the experimental configuration. The zero value means
	// config.Default().
	Config config.Config
	// Workload is the Table 4 workload driving the synthetic generator.
	// Ignored when Records is set.
	Workload trace.Workload
	// Records, when non-nil, replays a pre-recorded LLC-miss trace (the
	// `psoram trace` format) instead of the synthetic generator. N is then
	// ignored: every record is replayed.
	Records []trace.Record
	// TraceName labels a Records run in results and errors (defaults to
	// Workload.Name).
	TraceName string
	// N is the number of LLC misses to simulate — or, with ThroughCaches,
	// the number of RAW memory references fed into the cache hierarchy.
	N int
	// Levels is the ORAM tree height (the paper's Table 3 uses 23).
	Levels int
	// Observer, when non-nil, receives protocol events for the duration
	// of the run (see Observer). Observation is timing-neutral.
	Observer *Observer
	// ThroughCaches filters raw references through the L1D/L2 hierarchy
	// so the LLC miss rate emerges from cache behaviour instead of Table
	// 4's MPKI. Incompatible with Records.
	ThroughCaches bool
}

// name returns the label a run carries in Result.Workload and errors.
func (r Request) name() string {
	if r.Records != nil && r.TraceName != "" {
		return r.TraceName
	}
	return r.Workload.Name
}

// ctxCheckMask bounds how often the access loops poll ctx.Done(): every
// 64 iterations keeps cancellation latency in the tens of microseconds
// without touching the steady-state zero-allocation property (a Done
// poll neither blocks nor allocates).
const ctxCheckMask = 63

// Simulate runs the full-system timing model described by req. It is the
// simulator's one entry point.
//
// The context is checked at loop checkpoints (every 64 accesses or
// records), so a cancelled Simulate stops mid-run and returns an error
// wrapping ctx.Err(). Determinism is unaffected: a run that completes
// produces byte-identical results whether or not a cancellable context
// was supplied.
func Simulate(ctx context.Context, req Request) (Result, error) {
	cfg := req.Config
	if cfg.BlockBytes == 0 {
		cfg = config.Default()
	}
	if req.Records != nil && req.ThroughCaches {
		return Result{}, fmt.Errorf("sim: Request cannot combine Records with ThroughCaches")
	}
	sys, err := NewSystem(req.Scheme, cfg, req.Levels)
	if err != nil {
		return Result{}, err
	}
	sys.obs = req.Observer
	name := req.name()
	done := ctx.Done()

	var res Result
	switch {
	case req.Records != nil:
		core := cpu.New(sys)
		for i, rec := range req.Records {
			if done != nil && i&ctxCheckMask == 0 {
				select {
				case <-done:
					return Result{}, fmt.Errorf("sim: %s on trace %s cancelled at record %d: %w", req.Scheme, name, i, ctx.Err())
				default:
				}
			}
			if err := core.Step(rec.InstrGap, rec.Addr, rec.Write); err != nil {
				return Result{}, fmt.Errorf("sim: %s on trace %s, record %d: %w", req.Scheme, name, i, err)
			}
		}
		cs := core.Stats()
		res = sys.res
		res.Cycles = cs.Cycles
		res.Instrs = cs.Instrs

	case req.ThroughCaches:
		gen := trace.NewRawGenerator(req.Workload, cfg.Seed, sys.NumBlocks())
		h := cache.NewHierarchy(cfg.L1SizeBytes, cfg.L1Ways, cfg.L1ReadCycle,
			cfg.L2SizeBytes, cfg.L2Ways, cfg.L2ReadCycle, cfg.LineBytes)
		var cycles, instrs uint64
		for i := 0; i < req.N; i++ {
			if done != nil && i&ctxCheckMask == 0 {
				select {
				case <-done:
					return Result{}, fmt.Errorf("sim: %s on %s (through caches) cancelled at ref %d: %w", req.Scheme, name, i, ctx.Err())
				default:
				}
			}
			rec := gen.NextRef()
			cycles += rec.InstrGap
			instrs += rec.InstrGap
			lat, misses := h.Access(rec.Addr, rec.Write)
			cycles += uint64(lat)
			for _, m := range misses {
				l, err := sys.Serve(m.Line, m.Write)
				if err != nil {
					return Result{}, fmt.Errorf("sim: %s on %s (through caches), ref %d: %w", req.Scheme, name, i, err)
				}
				cycles += l
			}
		}
		res = sys.res
		res.Cycles = cycles
		res.Instrs = instrs

	default:
		gen := trace.NewGenerator(req.Workload, cfg.Seed, sys.NumBlocks())
		core := cpu.New(sys)
		for i := 0; i < req.N; i++ {
			if done != nil && i&ctxCheckMask == 0 {
				select {
				case <-done:
					return Result{}, fmt.Errorf("sim: %s on %s cancelled at access %d: %w", req.Scheme, name, i, ctx.Err())
				default:
				}
			}
			rec := gen.Next()
			if err := core.Step(rec.InstrGap, rec.Addr, rec.Write); err != nil {
				return Result{}, fmt.Errorf("sim: %s on %s, access %d: %w", req.Scheme, name, i, err)
			}
		}
		cs := core.Stats()
		res = sys.res
		res.Cycles = cs.Cycles
		res.Instrs = cs.Instrs
	}

	res.Workload = name
	finishResult(&res, sys, cfg)
	return res, nil
}
