package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	psoram "repro"
	"repro/internal/netserve"
	"repro/internal/serve"
)

// system is one workload's stack under test: the pool, and on the TCP
// workload the server in front of it and one connection per client
// group.
type system struct {
	w        workload
	pool     *serve.Pool
	srv      *netserve.Server
	srvDone  chan error
	conns    []*netserve.Client
	clients  []client // one per client group
	storeDir string
	stock    bool // built on the stock psoram.NewPool path, no Factory
}

// poolOptions are the options a workload names; everything else stays at
// the psoram.NewPool default.
func poolOptions(w workload, seed uint64, storeDir string) []psoram.PoolOption {
	opts := []psoram.PoolOption{
		psoram.WithShards(numShards),
		psoram.WithPoolLevels(w.Levels),
		psoram.WithPoolSeed(seed),
	}
	if w.Durable {
		opts = append(opts,
			psoram.WithPoolStorePath(storeDir),
			psoram.WithPoolGroupCommit(w.GroupOps, w.GroupDelay))
	}
	return opts
}

// build stands the stack up. A nil factory is exactly the stock
// psoram.NewPool path; the traced run passes the timing factory (the
// stock backend behind a span-recording wrapper).
func build(w workload, seed uint64, storeDir string, factory serve.Factory) (*system, error) {
	sys := &system{w: w, stock: factory == nil}
	if w.Durable {
		sys.storeDir = storeDir
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
	}
	opts := poolOptions(w, seed, storeDir)
	if factory != nil {
		opts = append(opts, psoram.WithPoolFactory(factory))
	}
	pool, err := psoram.NewPool(w.Blocks, opts...)
	if err != nil {
		return nil, fmt.Errorf("build pool: %w", err)
	}
	sys.pool = pool
	if err := sys.front(); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// front puts the transport in front of the pool: nothing in process, a
// netserve server and one connection per client group over TCP.
func (sys *system) front() error {
	if !sys.w.TCP {
		sys.clients = []client{sys.pool, sys.pool}
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	sys.srv = netserve.NewServer(sys.pool, netserve.ServerOptions{})
	sys.srvDone = make(chan error, 1)
	go func() { sys.srvDone <- sys.srv.Serve(ln) }()
	for g := 0; g < clientGroups; g++ {
		c, err := netserve.Dial(ln.Addr().String(), netserve.ClientOptions{})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		sys.conns = append(sys.conns, c)
		sys.clients = append(sys.clients, c)
	}
	return nil
}

// close tears the stack down and waits for everything it started. A
// durable pool's final persist barrier runs here; the store directory
// is left for the caller.
func (sys *system) close() error {
	var first error
	for _, c := range sys.conns {
		c.Close()
	}
	sys.conns = nil
	if sys.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := sys.srv.Shutdown(ctx); err != nil {
			first = fmt.Errorf("server shutdown: %w", err)
		}
		cancel()
		if err := <-sys.srvDone; err != nil && !errors.Is(err, netserve.ErrServerClosed) && first == nil {
			first = fmt.Errorf("server: %w", err)
		}
		sys.srv = nil
	}
	if sys.pool != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := sys.pool.Close(ctx); err != nil && first == nil {
			first = fmt.Errorf("pool close: %w", err)
		}
		cancel()
		sys.pool = nil
	}
	return first
}

// warm writes every block once, so the tree holds real blocks before
// anything is timed. ref ends at version 1 everywhere.
func (sys *system) warm(ctx context.Context, ref *reference) tally {
	return everyAddress(ctx, sys.w, sys.clients, ref, true)
}

// sweep reads every address back through the given clients and diffs it
// against the reference.
func sweep(ctx context.Context, w workload, clients []client, ref *reference) tally {
	return everyAddress(ctx, w, clients, ref, false)
}

// everyAddress writes or reads every address once, each worker its own
// stripe.
func everyAddress(ctx context.Context, w workload, clients []client, ref *reference, write bool) tally {
	ws := newWorkers(w, 0, 0, clients, ref)
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for a := wk.gen.lo; a < wk.gen.hi; a++ {
				wk.access(ctx, write, a, 0)
			}
		}(wk)
	}
	wg.Wait()
	return tallyOf(ws)
}

// verify is the end-of-run output check: a full sweep plus the pool's
// structural invariants, and for a durable pool on the stock path a
// close, a reopen from the store directory and a second sweep. The
// process stays alive over the reopen, so that checks the recovery path,
// not power loss.
func (sys *system) verify(ctx context.Context, seed uint64, ref *reference) (tally, []string, error) {
	var notes []string
	t := sweep(ctx, sys.w, sys.clients, ref)
	notes = append(notes, fmt.Sprintf("sweep: %d addresses read back, %d wrong, %d errors", t.attempted, t.wrong, t.errs+t.refused))
	for _, err := range sys.pool.Invariants(ctx) {
		t.wrong++
		notes = append(notes, "invariant: "+err.Error())
	}
	if !sys.w.Durable || !sys.stock {
		return t, notes, nil
	}
	if err := sys.close(); err != nil {
		return t, notes, err
	}
	pool, err := psoram.NewPool(sys.w.Blocks, poolOptions(sys.w, seed, sys.storeDir)...)
	if err != nil {
		return t, notes, fmt.Errorf("reopen from %s: %w", sys.storeDir, err)
	}
	sys.pool = pool
	t2 := sweep(ctx, sys.w, []client{pool, pool}, ref)
	for _, err := range pool.Invariants(ctx) {
		t2.wrong++
		notes = append(notes, "invariant after reopen: "+err.Error())
	}
	notes = append(notes, fmt.Sprintf("reopen: pool closed and recovered from the store directory, %d acked writes read back, %d wrong, %d errors (process stayed alive: this checks recovery, not power loss)",
		t2.attempted, t2.wrong, t2.errs+t2.refused))
	t.add(t2)
	return t, notes, nil
}

// Set-up is repeated, so one slow build does not stand for the set-up
// cost: at least setupMinReps times, and for cheap set-ups until
// setupBudget is spent or setupMaxReps is reached.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupBudget  = 1500 * time.Millisecond
)

// setUp builds and warms the stack repeatedly (reps times, or by the
// rule above when reps is 0), keeps the last one, and returns every
// repetition's build+warm time in seconds. mkFactory, when set, supplies
// the shard factory for a store directory.
func setUp(ctx context.Context, w workload, seed uint64, storeRoot string, mkFactory func(storeDir string) serve.Factory, reps int) (*system, *reference, []float64, tally, error) {
	var (
		times []float64
		total time.Duration
		warmT tally
	)
	for rep := 0; ; rep++ {
		dir := filepath.Join(storeRoot, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
		t0 := time.Now()
		var factory serve.Factory
		if mkFactory != nil {
			factory = mkFactory(dir)
		}
		sys, err := build(w, seed, dir, factory)
		if err != nil {
			return nil, nil, nil, warmT, err
		}
		ref := newReference(w.Blocks)
		wt := sys.warm(ctx, ref)
		d := time.Since(t0)
		warmT.add(wt)
		times = append(times, d.Seconds())
		total += d
		last := rep+1 >= reps && reps > 0
		if reps == 0 {
			last = rep+1 >= setupMaxReps || (rep+1 >= setupMinReps && total >= setupBudget)
		}
		if last {
			return sys, ref, times, warmT, nil
		}
		if err := sys.discard(); err != nil {
			return nil, nil, nil, warmT, err
		}
	}
}

// discard closes the stack, removes its store directory and returns the
// memory to the OS, so a repeated set-up starts from the same place.
func (sys *system) discard() error {
	err := sys.close()
	if sys.storeDir != "" {
		if rerr := os.RemoveAll(sys.storeDir); rerr != nil && err == nil {
			err = rerr
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return err
}
