package sim

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// Request describes one timing-simulation run over an LLC-miss record
// stream: the recorded Records when set, else N records of Workload's
// synthetic generator.
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
	// N is the number of LLC misses to simulate.
	N int
	// Levels is the ORAM tree height (the paper's Table 3 uses 23).
	Levels int
	// Observer, when non-nil, receives protocol events for the duration
	// of the run (see Observer). Observation is timing-neutral.
	Observer *Observer
}

// name returns the label a run carries in Result.Workload and errors.
func (r Request) name() string {
	if r.Records != nil && r.TraceName != "" {
		return r.TraceName
	}
	return r.Workload.Name
}

// ctxCheckMask bounds how often the access loop polls ctx.Done(): every
// 64 records keeps cancellation latency in the tens of microseconds
// without touching the steady-state zero-allocation property (a Done
// poll neither blocks nor allocates).
const ctxCheckMask = 63

// Simulate runs the full-system timing model described by req. It is the
// simulator's one entry point. A run with no records to simulate (N < 1
// without Records, or an empty Records) is an error.
//
// The context is checked every 64 records, so a cancelled Simulate stops
// mid-run and returns an error wrapping ctx.Err(). Determinism is
// unaffected: a run that completes produces byte-identical results
// whether or not a cancellable context was supplied.
func Simulate(ctx context.Context, req Request) (Result, error) {
	cfg := req.Config
	if cfg.BlockBytes == 0 {
		cfg = config.Default()
	}
	name := req.name()
	n := req.N
	if req.Records != nil {
		n = len(req.Records)
	}
	if n < 1 {
		return Result{}, fmt.Errorf("sim: %s on %s: need at least 1 access, got %d", req.Scheme, name, n)
	}
	sys, err := NewSystem(req.Scheme, cfg, req.Levels)
	if err != nil {
		return Result{}, err
	}
	sys.obs = req.Observer

	var next func() trace.Record
	if req.Records != nil {
		next = replay(req.Records)
	} else {
		next = trace.NewGenerator(req.Workload, cfg.Seed, sys.NumBlocks()).Next
	}
	done := ctx.Done()
	core := cpu.New(sys)
	for i := 0; i < n; i++ {
		if done != nil && i&ctxCheckMask == 0 {
			select {
			case <-done:
				return Result{}, fmt.Errorf("sim: %s on %s cancelled at record %d: %w", req.Scheme, name, i, ctx.Err())
			default:
			}
		}
		rec := next()
		if err := core.Step(rec.InstrGap, rec.Addr, rec.Write); err != nil {
			return Result{}, fmt.Errorf("sim: %s on %s, record %d: %w", req.Scheme, name, i, err)
		}
	}
	cs := core.Stats()
	res := sys.res
	res.Cycles = cs.Cycles
	res.Instrs = cs.Instrs
	res.Workload = name
	finishResult(&res, sys, cfg)
	return res, nil
}

// replay returns a source that yields recs in order.
func replay(recs []trace.Record) func() trace.Record {
	i := 0
	return func() trace.Record {
		r := recs[i]
		i++
		return r
	}
}
