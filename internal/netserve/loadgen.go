package netserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Target is what the load generator drives: one block store reached by
// address. *Client (over the wire) and *serve.Pool (in process) both
// satisfy it, and a test substitutes a fake.
type Target interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
}

// MaxOutstanding caps concurrently in-flight requests across all of a
// run's streams; arrivals past the cap are recorded as dropped rather
// than stalling the arrival clock. A caller that dials the connections
// sizes each one's ClientOptions.MaxInFlight from it.
const MaxOutstanding = 4096

// LoadOptions shapes one open-loop load run.
type LoadOptions struct {
	// Conns is how many concurrent request streams to run (default 8).
	// Stream i drives targets[i%len(targets)]: one connection each over
	// the wire, or one shared in-process pool.
	Conns int
	// Rate is the offered load in requests/second, Poisson arrivals
	// (default 1000). Open loop: arrivals do not wait for completions,
	// so a saturated server grows queueing latency instead of silently
	// throttling the generator (no coordinated omission).
	Rate float64
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// WriteRatio is the fraction of requests that are writes (default 0.5).
	WriteRatio float64
	// SLO, when non-zero, is the latency objective the report grades
	// p99 against.
	SLO time.Duration
	// Seed drives arrivals, address choice, and payloads (default 1).
	Seed uint64
	// Check runs the differential oracle through the target: each stream
	// owns a disjoint address stripe, reads what the stripe holds before
	// the run (so a recovered or already-written store checks as well as
	// a fresh one), executes its requests sequentially (arrivals still
	// open-loop, queueing counted in latency), diffs every read against
	// its reference map, and ends with a full sweep of the stripe.
	Check bool
}

func (o *LoadOptions) normalize() error {
	if o.Conns <= 0 {
		o.Conns = 8
	}
	if o.Rate <= 0 {
		o.Rate = 1000
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.WriteRatio < 0 || o.WriteRatio > 1 {
		return fmt.Errorf("netserve: WriteRatio %v outside [0,1]", o.WriteRatio)
	}
	if o.WriteRatio == 0 {
		o.WriteRatio = 0.5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// LoadReport is one load run's outcome. Latency is measured from each
// request's scheduled arrival time, so time spent queueing behind a
// saturated server (or generator) is charged to the request.
type LoadReport struct {
	Conns     int           `json:"conns"`
	Rate      float64       `json:"offered_rate_rps"`
	Duration  time.Duration `json:"duration_ns"`
	Offered   uint64        `json:"offered"`
	Completed uint64        `json:"completed"`
	Backoff   uint64        `json:"backoff_retries"` // full queue or migrating stripe
	Interrupt uint64        `json:"crash_interrupts"`
	Dropped   uint64        `json:"dropped"`
	Errors    uint64        `json:"errors"`
	CheckFail uint64        `json:"check_failures"`

	Throughput float64       `json:"throughput_rps"`
	Mean       time.Duration `json:"mean_ns"`
	P50        time.Duration `json:"p50_ns"`
	P99        time.Duration `json:"p99_ns"`
	P999       time.Duration `json:"p999_ns"`
	Max        time.Duration `json:"max_ns"`

	SLO      time.Duration `json:"slo_ns"`
	SLOMet   bool          `json:"slo_met"`
	UnderSLO float64       `json:"under_slo_frac"`
}

// String renders the report as a small text table.
func (r LoadReport) String() string {
	tab := stats.NewTable(
		fmt.Sprintf("Open-loop load: %d conns, %.0f req/s offered for %v",
			r.Conns, r.Rate, r.Duration.Round(time.Millisecond)),
		"Metric", "Value")
	tab.AddRow("offered", fmt.Sprintf("%d", r.Offered))
	tab.AddRow("completed", fmt.Sprintf("%d (%.0f req/s)", r.Completed, r.Throughput))
	tab.AddRow("backoff retries", fmt.Sprintf("%d", r.Backoff))
	tab.AddRow("crash interrupts", fmt.Sprintf("%d", r.Interrupt))
	tab.AddRow("dropped", fmt.Sprintf("%d", r.Dropped))
	tab.AddRow("errors", fmt.Sprintf("%d", r.Errors))
	tab.AddRow("latency mean", r.Mean.String())
	tab.AddRow("latency p50", r.P50.String())
	tab.AddRow("latency p99", r.P99.String())
	tab.AddRow("latency p999", r.P999.String())
	tab.AddRow("latency max", r.Max.String())
	if r.SLO > 0 {
		verdict := "MET"
		if !r.SLOMet {
			verdict = "MISSED"
		}
		tab.AddRow(fmt.Sprintf("SLO p99 <= %v", r.SLO),
			fmt.Sprintf("%s (%.2f%% of requests under SLO)", verdict, 100*r.UnderSLO))
	}
	return tab.String()
}

// loadState is the shared accounting for one run.
type loadState struct {
	mu        sync.Mutex
	latencies []time.Duration

	offered   atomic.Uint64
	completed atomic.Uint64
	backoff   atomic.Uint64
	interrupt atomic.Uint64
	dropped   atomic.Uint64
	errs      atomic.Uint64
	checkFail atomic.Uint64
	firstErr  atomic.Pointer[string]
}

func (st *loadState) fail(err error) {
	st.errs.Add(1)
	msg := err.Error()
	st.firstErr.CompareAndSwap(nil, &msg)
}

func (st *loadState) mismatch(where string, addr uint64, got, want []byte) {
	st.checkFail.Add(1)
	st.fail(fmt.Errorf("%s: addr %d got %.16q want %.16q", where, addr, got, want))
}

// retry runs op until serve.Classify says stop, and returns what op
// last returned. This is the client half of the serving contract: an
// interrupted access re-issues at once (it never happened), a refused
// one — full queue, migrating stripe — waits first, for the server's
// RetryAfter hint when the error came off the wire with one, else 1ms.
func (st *loadState) retry(ctx context.Context, op func() error) error {
	for {
		err := op()
		switch serve.Classify(err) {
		case serve.RetryNow:
			st.interrupt.Add(1)
		case serve.RetryAfterBackoff:
			st.backoff.Add(1)
			wait := time.Millisecond
			var se *StatusError
			if errors.As(err, &se) && se.RetryAfter > 0 {
				wait = se.RetryAfter
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return err
		}
	}
}

// read is one read through retry.
func (st *loadState) read(ctx context.Context, t Target, addr uint64) (v []byte, err error) {
	err = st.retry(ctx, func() error {
		v, err = t.Read(ctx, addr)
		return err
	})
	return v, err
}

// do runs one arrival (a write when data is non-nil) through retry and
// accounts for it, measuring from the scheduled arrival time.
func (st *loadState) do(ctx context.Context, t Target, scheduled time.Time, addr uint64, data []byte) (v []byte, err error) {
	if data != nil {
		err = st.retry(ctx, func() error { return t.Write(ctx, addr, data) })
	} else {
		v, err = st.read(ctx, t, addr)
	}
	switch {
	case err == nil:
		st.completed.Add(1)
		d := time.Since(scheduled)
		st.mu.Lock()
		st.latencies = append(st.latencies, d)
		st.mu.Unlock()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		st.dropped.Add(1)
	default:
		st.fail(err)
	}
	return v, err
}

// RunLoad drives one open-loop Poisson load run against targets, which
// together serve info.NumBlocks blocks of info.BlockBytes bytes. The
// generator draws exponential inter-arrival gaps at opts.Rate; each
// arrival is stamped with its scheduled time, dispatched to one of
// opts.Conns streams, re-issued as the serving contract allows (see
// retry), and its completion latency recorded against the scheduled
// arrival.
func RunLoad(ctx context.Context, targets []Target, info Info, opts LoadOptions) (LoadReport, error) {
	if err := opts.normalize(); err != nil {
		return LoadReport{}, err
	}
	if len(targets) == 0 {
		return LoadReport{}, errors.New("netserve: RunLoad needs a target")
	}
	if info.NumBlocks == 0 || info.BlockBytes == 0 {
		return LoadReport{}, fmt.Errorf("netserve: target reports an empty store (%+v)", info)
	}

	st := &loadState{latencies: make([]time.Duration, 0, int(opts.Rate*opts.Duration.Seconds())+16)}
	start := time.Now()
	var err error
	if opts.Check {
		err = runLoadChecked(ctx, opts, targets, info, st)
	} else {
		runLoadOpen(ctx, opts, targets, info, st)
	}
	elapsed := time.Since(start)
	if err != nil {
		return LoadReport{}, err
	}

	rep := LoadReport{
		Conns:     opts.Conns,
		Rate:      opts.Rate,
		Duration:  elapsed,
		Offered:   st.offered.Load(),
		Completed: st.completed.Load(),
		Backoff:   st.backoff.Load(),
		Interrupt: st.interrupt.Load(),
		Dropped:   st.dropped.Load(),
		Errors:    st.errs.Load(),
		CheckFail: st.checkFail.Load(),
		SLO:       opts.SLO,
	}
	if rep.Errors > 0 {
		if msg := st.firstErr.Load(); msg != nil {
			return rep, fmt.Errorf("netserve: load run saw %d errors; first: %s", rep.Errors, *msg)
		}
	}
	lat := st.latencies
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		var sum time.Duration
		under := 0
		for _, d := range lat {
			sum += d
			if opts.SLO > 0 && d <= opts.SLO {
				under++
			}
		}
		rep.Mean = sum / time.Duration(n)
		rep.P50 = lat[quantIdx(n, 0.50)]
		rep.P99 = lat[quantIdx(n, 0.99)]
		rep.P999 = lat[quantIdx(n, 0.999)]
		rep.Max = lat[n-1]
		rep.UnderSLO = float64(under) / float64(n)
		rep.SLOMet = opts.SLO == 0 || rep.P99 <= opts.SLO
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	}
	return rep, nil
}

func quantIdx(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// arrivals runs the Poisson arrival clock at opts.Rate for
// opts.Duration (or until ctx ends), calling emit with each arrival's
// index and scheduled time.
func arrivals(ctx context.Context, opts LoadOptions, r *rng.Rand, emit func(i int, scheduled time.Time)) {
	next := time.Now()
	deadline := next.Add(opts.Duration)
	for i := 0; next.Before(deadline); i++ {
		// Exponential inter-arrival gap: Poisson process at opts.Rate.
		gap := time.Duration(-math.Log(1-r.Float64()) / opts.Rate * float64(time.Second))
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			return
		}
		emit(i, next)
	}
}

// runLoadOpen is the throughput mode: arrivals dispatch to goroutines
// round-robin across targets, fully concurrent.
func runLoadOpen(ctx context.Context, opts LoadOptions, targets []Target, info Info, st *loadState) {
	ctx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()
	r := rng.New(rng.DeriveSeed(opts.Seed, rng.HashString("netserve.load")))
	sem := make(chan struct{}, MaxOutstanding)
	var wg sync.WaitGroup
	version := 0
	arrivals(ctx, opts, r, func(i int, scheduled time.Time) {
		st.offered.Add(1)
		addr := r.Uint64n(info.NumBlocks)
		var data []byte
		if r.Float64() < opts.WriteRatio {
			version++
			data = oracle.Value(addr, version, int(info.BlockBytes))
		}
		select {
		case sem <- struct{}{}:
		default:
			st.dropped.Add(1)
			return
		}
		wg.Add(1)
		go func(t Target) {
			defer func() { <-sem; wg.Done() }()
			st.do(ctx, t, scheduled, addr, data)
		}(targets[i%len(targets)])
	})
	wg.Wait()
}

// runLoadChecked is the differential-oracle mode: each stream owns a
// disjoint address stripe and executes its arrivals sequentially
// against a private reference map, so every returned value is exactly
// checkable; arrivals are still scheduled open-loop and queue time is
// charged to latency. Each stream reads its stripe before the run (the
// reference starts from what the store holds) and again after it.
func runLoadChecked(ctx context.Context, opts LoadOptions, targets []Target, info Info, st *loadState) error {
	perConn := info.NumBlocks / uint64(opts.Conns)
	if perConn == 0 {
		return fmt.Errorf("netserve: %d blocks cannot stripe over %d checked streams", info.NumBlocks, opts.Conns)
	}
	type arrival struct {
		scheduled time.Time
		addr      uint64
		data      []byte // nil = read
	}
	queues := make([]chan arrival, opts.Conns)
	for i := range queues {
		// Deep enough that a stream stalled behind a retry absorbs its
		// share of a few thousand arrivals before any is dropped.
		queues[i] = make(chan arrival, 4*MaxOutstanding/opts.Conns+1)
	}
	var wg, primed sync.WaitGroup
	for i := range queues {
		wg.Add(1)
		primed.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			base := uint64(i) * perConn
			// Ops run under the outer ctx, not the run deadline: a write
			// canceled mid-flight may still land server-side, which would
			// silently poison the reference map. The deadline stops the
			// arrival generator; workers drain their queues to the end.
			ref := make([][]byte, perConn)
			for a := range ref {
				v, err := st.read(ctx, t, base+uint64(a))
				if err != nil {
					st.fail(fmt.Errorf("check prime: addr %d: %w", base+uint64(a), err))
				}
				ref[a] = v
			}
			primed.Done()
			for a := range queues[i] {
				got, err := st.do(ctx, t, a.scheduled, a.addr, a.data)
				switch {
				case err != nil:
				case a.data != nil:
					ref[a.addr-base] = a.data
				case !bytes.Equal(got, ref[a.addr-base]):
					st.mismatch("check", a.addr, got, ref[a.addr-base])
				}
			}
			for a := range ref {
				got, err := st.read(ctx, t, base+uint64(a))
				if err != nil {
					st.fail(fmt.Errorf("check sweep: addr %d: %w", base+uint64(a), err))
				} else if !bytes.Equal(got, ref[a]) {
					st.mismatch("check sweep", base+uint64(a), got, ref[a])
				}
			}
		}(i, targets[i%len(targets)])
	}
	primed.Wait()

	r := rng.New(rng.DeriveSeed(opts.Seed, rng.HashString("netserve.load.checked")))
	version := 0
	arrivals(ctx, opts, r, func(i int, scheduled time.Time) {
		conn := i % opts.Conns
		a := arrival{scheduled: scheduled, addr: uint64(conn)*perConn + r.Uint64n(perConn)}
		if r.Float64() < opts.WriteRatio {
			version++
			a.data = oracle.Value(a.addr, version, int(info.BlockBytes))
		}
		st.offered.Add(1)
		select {
		case queues[conn] <- a:
		default:
			st.dropped.Add(1)
		}
	})
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return nil
}
